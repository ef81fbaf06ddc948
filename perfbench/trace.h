#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "embed/embedding_store.h"
#include "serve/swappable_store.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One timed call. `number` is unique per log (1-based); `parent` is the
/// number of the span that was open on the same thread when this one began
/// (0 = none); `id` is the step, generation or request the call served.
struct Span {
  const char* name = "";
  uint64_t number = 0;
  uint64_t parent = 0;
  uint64_t id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t thread = 0;
};

/// In-memory span recorder for the traced run. Each thread appends to its
/// own buffer (no lock on the hot path), so recording costs two clock reads
/// and one vector push per call. Spans are collected once every recording
/// thread has stopped.
class SpanLog {
 public:
  /// Recording is on from construction; Disable() stops new spans so the
  /// checks between and after the measured phases leave none behind.
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NextNumber() {
    return next_.fetch_add(1, std::memory_order_relaxed);
  }
  void Record(const Span& span);
  std::vector<Span> Collect() const;

  /// Span open on this thread (parent of the next span it records).
  static uint64_t CurrentParent();
  static void SetCurrentParent(uint64_t number);

 private:
  struct ThreadBuffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
  };
  ThreadBuffer* Local();

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> next_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Times one call on the calling thread and makes it the parent of spans
/// recorded inside it. A null or disabled log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t id);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
};

/// Forwarding store over the live training store. It times the calls a
/// training step makes into the embedding layer — LookupBatch (embed.gather),
/// ApplyGradientBatch / ApplyGradientBatchSharded (embed.scatter) and Tick
/// (core.tick) — and forwards every other call unchanged, so snapshots,
/// deltas and replication see exactly the bytes of the wrapped store.
class TracingStore : public cafe::EmbeddingStore {
 public:
  /// `step` is read as the span id (the trainer's step counter).
  TracingStore(cafe::EmbeddingStore* inner, SpanLog* log,
               const uint64_t* step)
      : inner_(inner), log_(log), step_(step) {}

  uint32_t dim() const override { return inner_->dim(); }
  void Lookup(uint64_t id, float* out) override { inner_->Lookup(id, out); }
  void ApplyGradient(uint64_t id, const float* grad, float lr) override {
    inner_->ApplyGradient(id, grad, lr);
  }
  using cafe::EmbeddingStore::LookupBatch;
  void LookupBatch(const uint64_t* ids, size_t n, float* out,
                   size_t out_stride) override {
    ScopedSpan span(log_, "embed.gather", *step_);
    inner_->LookupBatch(ids, n, out, out_stride);
  }
  void LookupConst(uint64_t id, float* out) const override {
    inner_->LookupConst(id, out);
  }
  void LookupBatchConst(const uint64_t* ids, size_t n, float* out,
                        size_t out_stride) const override {
    inner_->LookupBatchConst(ids, n, out, out_stride);
  }
  using cafe::EmbeddingStore::ApplyGradientBatch;
  void ApplyGradientBatch(const uint64_t* ids, size_t n, const float* grads,
                          size_t grad_stride, float lr, float clip) override {
    ScopedSpan span(log_, "embed.scatter", *step_);
    inner_->ApplyGradientBatch(ids, n, grads, grad_stride, lr, clip);
  }
  void ApplyGradientBatchSharded(const uint64_t* ids, size_t n,
                                 const float* grads, size_t grad_stride,
                                 float lr, float clip, cafe::ThreadPool* pool,
                                 uint32_t num_shards) override {
    ScopedSpan span(log_, "embed.scatter", *step_);
    inner_->ApplyGradientBatchSharded(ids, n, grads, grad_stride, lr, clip,
                                      pool, num_shards);
  }
  void Tick() override {
    ScopedSpan span(log_, "core.tick", *step_);
    inner_->Tick();
  }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }
  std::string Name() const override { return inner_->Name(); }
  cafe::Status SaveState(cafe::io::Writer* writer) const override {
    return inner_->SaveState(writer);
  }
  cafe::Status LoadState(cafe::io::Reader* reader) override {
    return inner_->LoadState(reader);
  }
  bool SupportsIncrementalSnapshots() const override {
    return inner_->SupportsIncrementalSnapshots();
  }
  using cafe::EmbeddingStore::EnableDirtyTracking;
  cafe::Status EnableDirtyTracking(bool enable) override {
    return inner_->EnableDirtyTracking(enable);
  }
  cafe::Status SaveDelta(cafe::io::Writer* writer) override {
    return inner_->SaveDelta(writer);
  }
  cafe::Status LoadDelta(cafe::io::Reader* reader) override {
    return inner_->LoadDelta(reader);
  }

 private:
  cafe::EmbeddingStore* inner_;
  SpanLog* log_;
  const uint64_t* step_;
};

/// Forwarding store over the SwappableStore that serving worker models read
/// through. It times each batched lookup (which the SwappableStore resolves
/// to the pinned snapshot's LookupBatchConst) under `span_name`, with the
/// installed generation as the span id.
class TracingServeStore : public cafe::EmbeddingStore {
 public:
  TracingServeStore(cafe::SwappableStore* swap, SpanLog* log,
                    const char* span_name)
      : swap_(swap), log_(log), span_name_(span_name) {}

  uint32_t dim() const override { return swap_->dim(); }
  void Lookup(uint64_t id, float* out) override { swap_->Lookup(id, out); }
  void LookupConst(uint64_t id, float* out) const override {
    swap_->LookupConst(id, out);
  }
  using cafe::EmbeddingStore::LookupBatch;
  void LookupBatch(const uint64_t* ids, size_t n, float* out,
                   size_t out_stride) override {
    LookupBatchConst(ids, n, out, out_stride);
  }
  void LookupBatchConst(const uint64_t* ids, size_t n, float* out,
                        size_t out_stride) const override {
    ScopedSpan span(log_, span_name_, swap_->generation());
    swap_->LookupBatchConst(ids, n, out, out_stride);
  }
  void ApplyGradient(uint64_t id, const float* grad, float lr) override {
    swap_->ApplyGradient(id, grad, lr);
  }
  using cafe::EmbeddingStore::ApplyGradientBatch;
  void ApplyGradientBatch(const uint64_t* ids, size_t n, const float* grads,
                          size_t grad_stride, float lr, float clip) override {
    swap_->ApplyGradientBatch(ids, n, grads, grad_stride, lr, clip);
  }
  size_t MemoryBytes() const override { return swap_->MemoryBytes(); }
  std::string Name() const override { return swap_->Name(); }

 private:
  cafe::SwappableStore* swap_;
  SpanLog* log_;
  const char* span_name_;
};

/// Per span name: call count, total duration, and self time (duration less
/// the part covered by child spans).
struct SpanTotals {
  uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};
std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<Span>& spans);

/// Layer a span's self time belongs to: the module prefix of its name,
/// except that a training step's self time (the step less its store calls)
/// is the dense model work of the models layer.
std::string LayerOf(const std::string& span_name);

/// Writes the per-span totals and the self time per layer as one JSON
/// object; `header` holds extra leading members ("key": value, ...).
bool WriteSummary(const std::map<std::string, SpanTotals>& totals,
                  const std::string& header, const std::string& path);

/// Writes spans as tab-separated lines: number, parent, name, id, start_ns,
/// end_ns, thread.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
