#include "trace.h"

#include <cstdio>
#include <unordered_map>

namespace perfbench {
namespace {

thread_local uint64_t tls_parent = 0;

struct LocalSlot {
  const SpanLog* owner = nullptr;
  void* buffer = nullptr;
};
thread_local LocalSlot tls_slot;

}  // namespace

uint64_t SpanLog::CurrentParent() { return tls_parent; }
void SpanLog::SetCurrentParent(uint64_t number) { tls_parent = number; }

SpanLog::ThreadBuffer* SpanLog::Local() {
  if (tls_slot.owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->thread = static_cast<uint32_t>(buffers_.size());
    buffers_.back()->spans.reserve(1 << 14);
    tls_slot.owner = this;
    tls_slot.buffer = buffers_.back().get();
  }
  return static_cast<ThreadBuffer*>(tls_slot.buffer);
}

void SpanLog::Record(const Span& span) {
  ThreadBuffer* buffer = Local();
  buffer->spans.push_back(span);
  buffer->spans.back().thread = buffer->thread;
}

std::vector<Span> SpanLog::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t id)
    : log_(log != nullptr && log->enabled() ? log : nullptr) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.id = id;
  span_.number = log_->NextNumber();
  span_.parent = SpanLog::CurrentParent();
  SpanLog::SetCurrentParent(span_.number);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = NowNs();
  SpanLog::SetCurrentParent(span_.parent);
  log_->Record(span_);
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].number] = i;
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    auto it = index.find(span.parent);
    if (it == index.end()) continue;
    child_us[it->second] += static_cast<double>(span.end_ns - span.start_ns) / 1e3;
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double us =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_us += us;
    t.self_us += us - child_us[i];
  }
  return totals;
}

std::string LayerOf(const std::string& span_name) {
  if (span_name == "train.step") return "models";
  return span_name.substr(0, span_name.find('.'));
}

bool WriteSummary(const std::map<std::string, SpanTotals>& totals,
                  const std::string& header, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{%s,\n \"spans\": {", header.c_str());
  std::map<std::string, double> layer_self_us;
  const char* separator = "";
  for (const auto& [name, t] : totals) {
    std::fprintf(out,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_us\": %.3f, "
                 "\"self_us\": %.3f}",
                 separator, name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_us,
                 t.self_us);
    layer_self_us[LayerOf(name)] += t.self_us;
    separator = ",";
  }
  std::fprintf(out, "\n },\n \"layer_self_us\": {");
  separator = "";
  for (const auto& [layer, us] : layer_self_us) {
    std::fprintf(out, "%s\n  \"%s\": %.3f", separator, layer.c_str(), us);
    separator = ",";
  }
  std::fprintf(out, "\n }\n}\n");
  return std::fclose(out) == 0;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "number\tparent\tname\tid\tstart_ns\tend_ns\tthread\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%llu\t%llu\t%s\t%llu\t%llu\t%llu\t%u\n",
                 static_cast<unsigned long long>(s.number),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.thread);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
