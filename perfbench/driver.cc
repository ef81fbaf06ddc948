// End-to-end benchmark driver: one train -> cut -> replicate -> serve loop
// built from the library's public API, run on one named workload.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints human-readable lines starting with '#', then one JSON result line.
// Exits 1 when an output check fails, 2 on bad arguments or set-up errors.
// See README.md for the workloads, metrics and checks.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/cafe_embedding.h"
#include "data/presets.h"
#include "io/serialize.h"
#include "replicate/replica_manager.h"
#include "replicate/replication_source.h"
#include "replicate/transport.h"
#include "serve/inference_server.h"
#include "serve/snapshot_manager.h"
#include "serve/swappable_store.h"
#include "trace.h"
#include "train/model_factory.h"
#include "train/store_factory.h"
#include "train/trainer.h"

namespace perfbench {
namespace {

using cafe::Batch;
using cafe::EmbeddingStore;
using cafe::InferenceServer;
using cafe::RecModel;
using cafe::ServingSnapshot;
using cafe::SnapshotManager;
using cafe::Status;
using cafe::StatusOr;
using cafe::SwappableStore;

// Workloads differ only in proportions; every phase and metric exists on
// each. Thread counts are given as "nproc" (0) or a fixed count.
struct Workload {
  const char* name;
  // Dataset: geometric field cardinalities summing to ~total_features.
  size_t num_fields;
  uint64_t total_features;
  double cardinality_ratio;
  uint32_t num_numerical;
  uint64_t num_samples;
  uint32_t num_days;
  double zipf_z;
  double drift;  // per-day rotation of the popularity mapping
  // Live store and training.
  const char* store;
  double compression_ratio;
  uint64_t decay_interval;  // CAFE maintenance cadence (steps)
  size_t batch_size;
  float emb_lr;
  size_t backward_threads;  // 0 = nproc
  uint64_t cut_interval;    // steps between rollout cuts
  // Serving.
  size_t server_workers;  // 0 = nproc
  double open_loop_rate;  // requests/s during the online phase
  size_t request_size;    // samples per request
  size_t capacity_inflight;
  // Share of --seconds the capacity phase runs at least.
  double min_capacity_share;
};

constexpr uint32_t kEmbeddingDim = 16;
constexpr double kMinAucGain = 0.02;
constexpr uint64_t kReplicaWaitUs = 120'000'000;
constexpr size_t kMaxQueueSamples = 1 << 16;
constexpr double kP99LimitUs = 20'000.0;

const Workload kWorkloads[] = {
    // Training layers: big drifting catalog, cafe at CR 100, large batches,
    // sharded backward on every core; rare cuts, light serving.
    {"train_heavy", 12, 4'000'000, 0.65, 4, 1'200'000, 12, 1.1, 0.01, "cafe",
     100.0, 100, 1024, 0.2f, 0, 100, 1, 4000.0, 8, 16, 0.25},
    // Server: small catalog that fits in cache, cafe-ml, serial backward,
    // rare cuts, an open loop at ~40% of the reference host's capacity and a
    // long capacity phase. Its embeddings train at a higher rate: at 0.2 the
    // test AUC still depended on the stream order (0.69-0.72 over ten seeds).
    {"serve_heavy", 8, 40'000, 0.6, 4, 1'000'000, 5, 1.2, 0.002, "cafe-ml",
     10.0, 100, 256, 1.0f, 1, 400, 0, 15000.0, 8, 32, 0.4},
    // Rollout: strong drift keeps CAFE migrating; a cut every few steps
    // keeps dirty tracking, deltas, publish and the pipe transport busy.
    {"rollout_heavy", 12, 500'000, 0.65, 4, 1'000'000, 15, 1.1, 0.05, "cafe",
     10.0, 50, 512, 0.2f, 1, 10, 1, 4000.0, 8, 16, 0.25},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + salt;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  return x;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// p99 of each run of kLatencyWindow consecutive requests, then the median
// of those: one stall (a hot swap, a page fault) moves one window, not the
// metric. Every window has ten samples beyond its p99.
constexpr size_t kLatencyWindow = 1000;
double WindowedP99(const std::vector<double>& latencies) {
  if (latencies.size() < 2 * kLatencyWindow) return Quantile(latencies, 0.99);
  std::vector<double> window_p99;
  for (size_t start = 0; start + kLatencyWindow <= latencies.size();
       start += kLatencyWindow) {
    window_p99.push_back(Quantile(
        std::vector<double>(latencies.begin() + static_cast<std::ptrdiff_t>(start),
                            latencies.begin() + static_cast<std::ptrdiff_t>(
                                                    start + kLatencyWindow)),
        0.99));
  }
  return Quantile(window_p99, 0.5);
}

// Rank AUC with midranks for ties, written apart from the library's
// ComputeAuc so the two can check each other.
double RankAuc(const std::vector<float>& scores, const float* labels) {
  const size_t n = scores.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  double positive_ranks = 0.0;
  double positives = 0.0;
  size_t i = 0;
  while (i < n) {
    size_t j = i + 1;
    while (j < n && scores[order[j]] == scores[order[i]]) ++j;
    const double midrank = 0.5 * static_cast<double>(i + 1 + j);
    for (size_t k = i; k < j; ++k) {
      if (labels[order[k]] > 0.5f) {
        positive_ranks += midrank;
        positives += 1.0;
      }
    }
    i = j;
  }
  const double negatives = static_cast<double>(n) - positives;
  if (positives == 0.0 || negatives == 0.0) return 0.5;
  return (positive_ranks - positives * (positives + 1.0) / 2.0) /
         (positives * negatives);
}

// The training stream: the training split with each day's samples in an
// order drawn from the run's seed. Days stay in order, so the drift between
// them is kept. The world the days are drawn from (catalog, popularity,
// teacher) is fixed per workload, so seeds vary the stream, not how
// learnable the task is.
struct TrainStream {
  size_t num_fields = 0;
  size_t num_numerical = 0;
  std::vector<uint32_t> categorical;
  std::vector<float> numerical;
  std::vector<float> labels;

  Batch Get(size_t start, size_t size) const {
    Batch batch;
    batch.batch_size = size;
    batch.num_fields = num_fields;
    batch.num_numerical = num_numerical;
    batch.categorical = categorical.data() + start * num_fields;
    batch.numerical =
        num_numerical > 0 ? numerical.data() + start * num_numerical : nullptr;
    batch.labels = labels.data() + start;
    return batch;
  }
};

TrainStream ShuffleWithinDays(const cafe::SyntheticCtrDataset& data,
                              uint64_t seed) {
  TrainStream stream;
  stream.num_fields = data.num_fields();
  stream.num_numerical = data.config().num_numerical;
  const size_t n = data.train_size();
  const Batch all = data.GetBatch(0, n);
  stream.categorical.resize(n * stream.num_fields);
  stream.numerical.resize(n * stream.num_numerical);
  stream.labels.resize(n);
  cafe::Rng rng(seed);
  std::vector<size_t> order;
  size_t out = 0;
  for (uint32_t day = 0; day + 1 < data.num_days(); ++day) {
    order.resize(data.day_end(day) - data.day_begin(day));
    for (size_t i = 0; i < order.size(); ++i) order[i] = data.day_begin(day) + i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    for (size_t src : order) {
      std::copy_n(all.sample_categorical(src), stream.num_fields,
                  stream.categorical.begin() +
                      static_cast<std::ptrdiff_t>(out * stream.num_fields));
      if (stream.num_numerical > 0) {
        std::copy_n(all.sample_numerical(src), stream.num_numerical,
                    stream.numerical.begin() +
                        static_cast<std::ptrdiff_t>(out * stream.num_numerical));
      }
      stream.labels[out] = all.labels[src];
      ++out;
    }
  }
  return stream;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

std::string SaveStateBytes(const EmbeddingStore& store, Status* status) {
  cafe::io::Writer writer;
  *status = store.SaveState(&writer);
  return writer.Release();
}

bool AllFinite(const std::vector<float>& values) {
  for (float v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

struct ProcessTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
  double max_rss_mb = 0.0;
};

ProcessTimes ReadProcessTimes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcessTimes t;
  t.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
             static_cast<double>(usage.ru_utime.tv_usec) / 1e6;
  t.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
            static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
  t.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return t;
}

void SleepUntilNs(uint64_t deadline_ns) {
  const uint64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

// One open-loop request in flight between the generator and the completer.
struct OpenRequest {
  std::future<std::vector<float>> future;
  uint64_t scheduled_ns = 0;
  uint64_t number = 0;  // request span number (trace only)
  uint64_t index = 0;
  size_t samples = 0;
};

int Run(const Args& args, const Workload& w, uint64_t process_start_ns) {
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const size_t backward_threads =
      w.backward_threads == 0 ? nproc : w.backward_threads;
  const size_t server_workers = w.server_workers == 0 ? nproc : w.server_workers;
  std::unique_ptr<SpanLog> log;
  if (args.trace) log = std::make_unique<SpanLog>();
  SpanLog* const tlog = log.get();
  Checks checks;

  // ---------------------------------------------------------------- set-up
  cafe::SyntheticDatasetConfig data_config;
  data_config.name = w.name;
  data_config.field_cardinalities = cafe::GeometricCardinalities(
      w.num_fields, w.total_features, w.cardinality_ratio);
  data_config.num_numerical = w.num_numerical;
  data_config.num_samples = w.num_samples;
  data_config.num_days = w.num_days;
  data_config.zipf_z = w.zipf_z;
  data_config.drift_stride_fraction = w.drift;
  data_config.seed = MixSeed(0xCAFE, static_cast<uint64_t>(&w - kWorkloads));
  auto generated = cafe::SyntheticCtrDataset::Generate(data_config);
  if (!generated.ok()) {
    std::fprintf(stderr, "dataset: %s\n", generated.status().ToString().c_str());
    return 2;
  }
  const cafe::SyntheticCtrDataset& data = **generated;
  const size_t train_end = data.train_size();
  const size_t test_begin = train_end;
  const size_t test_end = data.num_samples();
  const TrainStream stream = ShuffleWithinDays(data, MixSeed(args.seed, 1));

  cafe::StoreFactoryContext context;
  context.embedding.total_features = data.layout().total_features();
  context.embedding.dim = kEmbeddingDim;
  context.embedding.compression_ratio = w.compression_ratio;
  context.embedding.seed = MixSeed(args.seed, 2);
  context.layout = data.layout();
  context.cafe.decay_interval = w.decay_interval;
  cafe::ModelConfig model_config;
  model_config.num_fields = data.num_fields();
  model_config.emb_dim = kEmbeddingDim;
  model_config.num_numerical = w.num_numerical;
  model_config.emb_lr = w.emb_lr;
  model_config.dense_lr = 0.05f;
  model_config.seed = MixSeed(args.seed, 3);
  const std::string store_name = w.store;
  auto factory = [&]() { return cafe::MakeStore(store_name, context); };

  auto live_store_or = factory();
  if (!live_store_or.ok()) {
    std::fprintf(stderr, "store: %s\n", live_store_or.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<EmbeddingStore> live_store = std::move(live_store_or).value();
  auto* cafe_store = dynamic_cast<cafe::CafeEmbedding*>(live_store.get());
  uint64_t trace_step = 0;  // span id of the store calls (trainer thread)
  std::unique_ptr<TracingStore> traced_store;
  EmbeddingStore* train_store = live_store.get();
  if (tlog != nullptr) {
    traced_store =
        std::make_unique<TracingStore>(live_store.get(), tlog, &trace_step);
    train_store = traced_store.get();
  }
  auto live_model_or = cafe::MakeModel("dlrm", model_config, train_store);
  if (!live_model_or.ok()) {
    std::fprintf(stderr, "model: %s\n", live_model_or.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<RecModel> live_model = std::move(live_model_or).value();
  std::unique_ptr<cafe::ThreadPool> pool;
  if (backward_threads > 1) {
    pool = std::make_unique<cafe::ThreadPool>(backward_threads);
    live_model->SetBackwardParallelism(
        pool.get(), static_cast<uint32_t>(backward_threads));
  }

  // The source outlives the manager that feeds it.
  cafe::replicate::ReplicationSource source(factory);
  cafe::replicate::TransportPair pipe = cafe::replicate::MakePipeTransport();
  if (Status s = source.AddReplica(std::move(pipe.source)); !s.ok()) {
    std::fprintf(stderr, "replica link: %s\n", s.ToString().c_str());
    return 2;
  }
  cafe::replicate::ReplicaManager::Options replica_options;
  replica_options.name = "perfbench_replica";
  cafe::replicate::ReplicaManager replica(factory, std::move(pipe.replica),
                                          replica_options);
  if (Status s = replica.Start(); !s.ok()) {
    std::fprintf(stderr, "replica start: %s\n", s.ToString().c_str());
    return 2;
  }
  SnapshotManager::Options manager_options;
  manager_options.incremental = true;
  manager_options.payload_observer = source.MakeObserver();
  SnapshotManager manager(train_store, live_model.get(), factory,
                          manager_options);

  uint64_t cuts_attempted = 1;
  uint64_t cuts_failed = 0;
  auto first = manager.Cut();
  if (!first.ok()) {
    std::fprintf(stderr, "first cut: %s\n", first.status().ToString().c_str());
    return 2;
  }
  SwappableStore swap(std::move(first).value());
  std::unique_ptr<TracingServeStore> traced_swap;
  EmbeddingStore* serve_view = &swap;
  if (tlog != nullptr) {
    traced_swap = std::make_unique<TracingServeStore>(&swap, tlog, "serve.gather");
    serve_view = traced_swap.get();
  }
  cafe::InferenceServerOptions server_options;
  server_options.num_workers = server_workers;
  server_options.max_queue_samples = kMaxQueueSamples;
  server_options.num_fields = data.num_fields();
  server_options.num_numerical = w.num_numerical;
  auto server_or = InferenceServer::Start(
      server_options,
      [&](size_t) { return cafe::MakeModel("dlrm", model_config, serve_view); },
      &swap);
  if (!server_or.ok()) {
    std::fprintf(stderr, "server: %s\n", server_or.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<InferenceServer> server = std::move(server_or).value();
  uint64_t generations_attempted = 1;
  uint64_t generations_failed = 0;
  if (Status s = replica.WaitForGeneration(1, kReplicaWaitUs); !s.ok()) {
    std::fprintf(stderr, "replica generation 1: %s\n", s.ToString().c_str());
    return 2;
  }
  const double setup_s =
      static_cast<double>(NowNs() - process_start_ns) / 1e9;

  // ---------------------------------------------------------------- online
  std::atomic<bool> online_done{false};
  std::atomic<uint64_t> trained_steps{0};
  std::atomic<uint64_t> next_cut_due{w.cut_interval};
  std::mutex step_mu;
  std::condition_variable step_cv;

  // Open-loop generator: request i is due at t0 + i / rate, whatever the
  // server did with earlier ones; its latency runs from that due time to
  // when the completer observes the response.
  const size_t full_slices = (test_end - test_begin) / w.request_size;
  std::mutex open_mu;
  std::condition_variable open_cv;
  std::deque<OpenRequest> open_queue;
  bool generator_done = false;
  uint64_t open_attempted = 0, open_failed = 0;
  std::vector<double> late_us, submit_us;
  std::thread generator([&]() {
    const uint64_t interval_ns =
        static_cast<uint64_t>(1e9 / w.open_loop_rate);
    cafe::Rng request_rng(MixSeed(args.seed, 4));
    const uint64_t t0 = NowNs();
    for (uint64_t i = 0; !online_done.load(std::memory_order_acquire); ++i) {
      const uint64_t due = t0 + i * interval_ns;
      SleepUntilNs(due);
      if (online_done.load(std::memory_order_acquire)) break;
      const uint64_t send = NowNs();
      late_us.push_back(static_cast<double>(send - due) / 1e3);
      OpenRequest request;
      request.scheduled_ns = due;
      request.index = i;
      request.samples = w.request_size;
      request.number = tlog != nullptr ? tlog->NextNumber() : 0;
      const size_t start =
          test_begin + request_rng.Uniform(full_slices) * w.request_size;
      ++open_attempted;
      SpanLog::SetCurrentParent(request.number);
      const uint64_t submit_start = NowNs();
      StatusOr<std::future<std::vector<float>>> submitted(
          Status::Internal("unset"));
      {
        ScopedSpan span(tlog, "serve.submit", i);
        submitted = server->Submit(data.GetBatch(start, w.request_size));
      }
      submit_us.push_back(static_cast<double>(NowNs() - submit_start) / 1e3);
      SpanLog::SetCurrentParent(0);
      if (!submitted.ok()) {
        ++open_failed;
        continue;
      }
      request.future = std::move(submitted).value();
      {
        std::lock_guard<std::mutex> lock(open_mu);
        open_queue.push_back(std::move(request));
      }
      open_cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(open_mu);
      generator_done = true;
    }
    open_cv.notify_one();
  });

  std::vector<double> open_latency_us;
  uint64_t open_bad_responses = 0, open_errors = 0;
  std::thread completer([&]() {
    for (;;) {
      OpenRequest request;
      {
        std::unique_lock<std::mutex> lock(open_mu);
        open_cv.wait(lock,
                     [&]() { return !open_queue.empty() || generator_done; });
        if (open_queue.empty()) return;
        request = std::move(open_queue.front());
        open_queue.pop_front();
      }
      std::vector<float> logits;
      try {
        logits = request.future.get();
      } catch (...) {
        ++open_errors;
        continue;
      }
      const uint64_t done = NowNs();
      open_latency_us.push_back(
          static_cast<double>(done - request.scheduled_ns) / 1e3);
      if (logits.size() != request.samples || !AllFinite(logits)) {
        ++open_bad_responses;
      }
      if (tlog != nullptr && tlog->enabled()) {
        Span span;
        span.name = "serve.request";
        span.number = request.number;
        span.id = request.index;
        span.start_ns = request.scheduled_ns;
        span.end_ns = done;
        tlog->Record(span);
      }
    }
  });

  // One rollout step: cut (serviced at the next step boundary while the
  // trainer runs), install into the source server, then wait until the
  // replica serves that generation. The rollout thread starts the next cut
  // only after that, so at most one generation is in flight to the replica
  // and each cut_to_replica sample times one frame, not a backlog.
  std::vector<double> publish_us, cut_bytes, cut_to_replica_ms, ship_apply_ms;
  uint64_t last_cut_step = 0;
  auto cut_and_ship = [&]() {
    ++cuts_attempted;
    const uint64_t call_ns = NowNs();
    auto snapshot = manager.Cut();
    const uint64_t return_ns = NowNs();
    if (!snapshot.ok()) {
      ++cuts_failed;
      std::fprintf(stderr, "cut: %s\n", snapshot.status().ToString().c_str());
      return false;
    }
    const uint64_t generation = (*snapshot)->generation;
    last_cut_step = (*snapshot)->train_step;
    const SnapshotManager::Stats stats = manager.stats();
    publish_us.push_back(stats.last_publish_us);
    cut_bytes.push_back(static_cast<double>(stats.last_copy_bytes));
    server->InstallSnapshot(std::move(snapshot).value());
    ++generations_attempted;
    const Status s = replica.WaitForGeneration(generation, kReplicaWaitUs);
    const uint64_t serving_ns = NowNs();
    if (!s.ok()) {
      ++generations_failed;
      std::fprintf(stderr, "replica generation %llu: %s\n",
                   static_cast<unsigned long long>(generation),
                   s.ToString().c_str());
      return false;
    }
    cut_to_replica_ms.push_back(static_cast<double>(serving_ns - call_ns) / 1e6);
    ship_apply_ms.push_back(static_cast<double>(serving_ns - return_ns) / 1e6);
    if (tlog != nullptr && tlog->enabled()) {
      Span span;
      span.name = "serve.cut";
      span.number = tlog->NextNumber();
      span.id = generation;
      span.start_ns = call_ns;
      span.end_ns = return_ns;
      tlog->Record(span);
      span.name = "replicate.ship_apply";
      span.number = tlog->NextNumber();
      span.start_ns = return_ns;
      span.end_ns = serving_ns;
      tlog->Record(span);
    }
    return true;
  };

  // Rollout: once the trainer passes the next multiple of cut_interval, cut
  // and ship; multiples passed while the previous cut was shipping are
  // skipped.
  manager.BeginTraining();
  std::thread rollout([&]() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(step_mu);
        step_cv.wait(lock, [&]() {
          return online_done.load(std::memory_order_acquire) ||
                 trained_steps.load(std::memory_order_acquire) >=
                     next_cut_due.load(std::memory_order_acquire);
        });
      }
      if (online_done.load(std::memory_order_acquire)) return;
      if (!cut_and_ship()) return;
      uint64_t due = next_cut_due.load(std::memory_order_relaxed);
      const uint64_t now_step = trained_steps.load(std::memory_order_acquire);
      while (due <= now_step) due += w.cut_interval;
      next_cut_due.store(due, std::memory_order_release);
    }
  });

  // Training: one pass over the training split on this thread.
  std::vector<double> pause_us;
  uint64_t examples = 0;
  uint64_t step = 0;
  double loss_sum = 0.0;
  const uint64_t train_start = NowNs();
  for (size_t start = 0; start < train_end; start += w.batch_size) {
    const size_t size = std::min(w.batch_size, train_end - start);
    const Batch batch = stream.Get(start, size);
    trace_step = step + 1;
    {
      ScopedSpan span(tlog, "train.step", step + 1);
      loss_sum += live_model->TrainStep(batch) * static_cast<double>(size);
    }
    examples += size;
    ++step;
    const bool copying = manager.cut_pending();
    const uint64_t boundary_start = NowNs();
    {
      ScopedSpan span(copying ? tlog : nullptr, "serve.cut_pause", step);
      manager.AtStepBoundary(step);
    }
    if (copying) {
      pause_us.push_back(static_cast<double>(NowNs() - boundary_start) / 1e3);
    }
    trained_steps.store(step, std::memory_order_release);
    if (step >= next_cut_due.load(std::memory_order_acquire)) {
      { std::lock_guard<std::mutex> lock(step_mu); }
      step_cv.notify_one();
    }
  }
  const uint64_t train_end_ns = NowNs();
  const double train_seconds =
      static_cast<double>(train_end_ns - train_start) / 1e9;
  // The done flag must be visible before FinishTraining wakes a cutter
  // blocked in Cut(), so the rollout loop does not cut the final state twice.
  {
    std::lock_guard<std::mutex> lock(step_mu);
    online_done.store(true, std::memory_order_release);
  }
  step_cv.notify_one();
  manager.FinishTraining(step);
  rollout.join();
  generator.join();
  completer.join();
  // The final generation carries the fully trained state.
  if (last_cut_step < step && cuts_failed == 0 && generations_failed == 0) {
    cut_and_ship();  // trainer idle: direct copy
  }
  const cafe::InferenceServer::Stats source_server_stats = server->stats();
  server->Shutdown();
  if (pool != nullptr) live_model->SetBackwardParallelism(nullptr, 1);
  if (tlog != nullptr) tlog->Disable();

  // ------------------------------------------------ checks on the replica
  const uint64_t final_generation = swap.generation();
  checks.Expect(replica.generation() == final_generation,
                "replica ends on the source's final generation");
  const auto replica_stats = replica.stats();
  const auto source_stats = source.stats();
  checks.Expect(replica_stats.fatal.ok(), "replica apply loop healthy");
  checks.Expect(source_stats.head_status.ok(), "source head healthy");
  checks.Expect(replica_stats.bases_applied == 1, "exactly one base applied");
  checks.Expect(replica_stats.deltas_applied + 1 == final_generation,
                "one delta per later generation");
  checks.Expect(replica_stats.corrupt_frames == 0 &&
                    replica_stats.gap_frames == 0 &&
                    replica_stats.resyncs_requested == 0,
                "no corrupt, gap or resync frames");
  checks.Expect(source_stats.queue_overflows == 0, "no watermark overflow");
  std::shared_ptr<const ServingSnapshot> replica_snapshot =
      replica.swappable() != nullptr ? replica.swappable()->Acquire() : nullptr;
  {
    Status live_status, replica_status = Status::Internal("no snapshot");
    const std::string live_bytes = SaveStateBytes(*live_store, &live_status);
    std::string replica_bytes;
    if (replica_snapshot != nullptr) {
      replica_bytes =
          SaveStateBytes(*replica_snapshot->store->underlying(), &replica_status);
    }
    checks.Expect(live_status.ok() && replica_status.ok() &&
                      live_bytes == replica_bytes,
                  "replica store state equals the live store's");
    std::vector<cafe::Param> params;
    live_model->CollectDenseParams(&params);
    bool dense_equal = replica_snapshot != nullptr &&
                       replica_snapshot->dense_params.size() == params.size();
    for (size_t i = 0; dense_equal && i < params.size(); ++i) {
      const std::vector<float>& copy = replica_snapshot->dense_params[i];
      dense_equal = copy.size() == params[i].size &&
                    std::memcmp(copy.data(), params[i].value,
                                copy.size() * sizeof(float)) == 0;
    }
    checks.Expect(dense_equal, "replica dense weights equal the live model's");
  }
  checks.Expect(live_store->MemoryBytes() <= context.embedding.BudgetBytes(),
                "live store within its memory budget");
  // Counts the program keeps, against the split and the driver's own tally:
  // the live store saw one lookup per field of every training example, the
  // manager serviced every cut, and the final generation carries the last
  // step.
  const cafe::CafeEmbedding::PathStats path_stats =
      cafe_store != nullptr ? cafe_store->lookup_stats()
                            : cafe::CafeEmbedding::PathStats{};
  checks.Expect(cafe_store != nullptr &&
                    path_stats.hot + path_stats.medium + path_stats.cold ==
                        train_end * data.num_fields(),
                "store lookups during training == training split x fields");
  const SnapshotManager::Stats manager_stats = manager.stats();
  checks.Expect(manager_stats.cuts == cuts_attempted &&
                    manager_stats.delta_cuts + 1 == cuts_attempted,
                "snapshot manager serviced every cut, one base then deltas");
  checks.Expect(replica_snapshot != nullptr &&
                    replica_snapshot->train_step == step &&
                    step == (train_end + w.batch_size - 1) / w.batch_size,
                "final generation carries the last training step");
  const uint64_t migrations = cafe_store != nullptr ? cafe_store->migrations() : 0;
  const uint64_t demotions = cafe_store != nullptr ? cafe_store->demotions() : 0;

  // The live model's logits over the test day: the reference every
  // replica-served response must equal bit for bit.
  const size_t test_size = test_end - test_begin;
  std::vector<float> expected(test_size);
  for (size_t start = test_begin; start < test_end; start += 1024) {
    const size_t size = std::min<size_t>(1024, test_end - start);
    std::vector<float> logits;
    live_model->Predict(data.GetBatch(start, size), &logits);
    std::copy(logits.begin(), logits.end(),
              expected.begin() + static_cast<std::ptrdiff_t>(start - test_begin));
  }

  // -------------------------------------------------------------- capacity
  // Closed loop over the replica's final generation: one generator thread
  // keeps capacity_inflight requests outstanding and runs whole rounds over
  // the test day until the phase time is spent.
  const double capacity_seconds =
      std::max(w.min_capacity_share * args.seconds, args.seconds - train_seconds);
  std::unique_ptr<TracingServeStore> traced_replica;
  EmbeddingStore* replica_view = replica.swappable();
  if (tlog != nullptr) {
    traced_replica = std::make_unique<TracingServeStore>(
        replica.swappable(), tlog, "serve.capacity_gather");
    replica_view = traced_replica.get();
  }
  double peak_qps = 0.0;
  uint64_t capacity_attempted = 0, capacity_failed = 0, capacity_mismatch = 0;
  uint64_t capacity_admitted = 0, capacity_admitted_samples = 0;
  uint64_t capacity_rounds = 0;
  std::vector<double> capacity_latency_us;
  std::vector<float> served(test_size, std::nanf(""));
  cafe::InferenceServer::Stats capacity_stats;
  if (tlog != nullptr) tlog->Enable();
  {
    auto capacity_server_or = InferenceServer::Start(
        server_options,
        [&](size_t) {
          return cafe::MakeModel("dlrm", model_config, replica_view);
        },
        replica.swappable());
    if (!capacity_server_or.ok()) {
      std::fprintf(stderr, "capacity server: %s\n",
                   capacity_server_or.status().ToString().c_str());
      return 2;
    }
    std::unique_ptr<InferenceServer> capacity_server =
        std::move(capacity_server_or).value();
    const size_t num_requests = (test_size + w.request_size - 1) / w.request_size;
    struct Inflight {
      std::future<std::vector<float>> future;
      size_t request = 0;
      uint64_t sent_ns = 0;
    };
    std::deque<Inflight> inflight;
    uint64_t completed = 0;
    auto complete_front = [&]() {
      Inflight front = std::move(inflight.front());
      inflight.pop_front();
      std::vector<float> logits;
      try {
        logits = front.future.get();
      } catch (...) {
        ++capacity_failed;
        return;
      }
      capacity_latency_us.push_back(
          static_cast<double>(NowNs() - front.sent_ns) / 1e3);
      ++completed;
      const size_t offset = front.request * w.request_size;
      const size_t size = std::min(w.request_size, test_size - offset);
      if (logits.size() != size ||
          std::memcmp(logits.data(), expected.data() + offset,
                      size * sizeof(float)) != 0) {
        ++capacity_mismatch;
        return;
      }
      std::copy(logits.begin(), logits.end(),
                served.begin() + static_cast<std::ptrdiff_t>(offset));
    };
    // The rate is the median over rounds of the responses completed per
    // second during the round, so a transient stall on the host moves one
    // round rather than the metric.
    std::vector<double> round_qps;
    const uint64_t capacity_start = NowNs();
    const uint64_t capacity_ns = static_cast<uint64_t>(capacity_seconds * 1e9);
    do {
      const uint64_t round_start = NowNs();
      const uint64_t completed_before = completed;
      for (size_t r = 0; r < num_requests; ++r) {
        while (inflight.size() >= w.capacity_inflight) complete_front();
        const size_t offset = r * w.request_size;
        const size_t size = std::min(w.request_size, test_size - offset);
        ++capacity_attempted;
        Inflight entry;
        entry.request = r;
        entry.sent_ns = NowNs();
        auto submitted =
            capacity_server->Submit(data.GetBatch(test_begin + offset, size));
        if (!submitted.ok()) {
          ++capacity_failed;
          continue;
        }
        ++capacity_admitted;
        capacity_admitted_samples += size;
        entry.future = std::move(submitted).value();
        inflight.push_back(std::move(entry));
      }
      ++capacity_rounds;
      round_qps.push_back(static_cast<double>(completed - completed_before) /
                          (static_cast<double>(NowNs() - round_start) / 1e9));
    } while (NowNs() - capacity_start < capacity_ns);
    while (!inflight.empty()) complete_front();
    peak_qps = Quantile(round_qps, 0.5);
    capacity_stats = capacity_server->stats();
    capacity_server->Shutdown();
  }
  if (tlog != nullptr) tlog->Disable();
  const ProcessTimes cpu_end = ReadProcessTimes();

  // ------------------------------------------------------ accuracy checks
  const float* test_labels = data.labels().data() + test_begin;
  const double test_auc = RankAuc(served, test_labels);
  const cafe::EvalMetrics library_metrics =
      cafe::EvaluateMetrics(live_model.get(), data, test_begin, test_end);
  checks.Expect(std::fabs(test_auc - library_metrics.auc) <= 1e-9,
                "benchmark AUC agrees with EvaluateMetrics");
  double untrained_auc = 1.0;
  {
    auto fresh_store = factory();
    if (fresh_store.ok()) {
      auto fresh_model =
          cafe::MakeModel("dlrm", model_config, fresh_store->get());
      if (fresh_model.ok()) {
        untrained_auc = cafe::EvaluateMetrics(fresh_model->get(), data,
                                              test_begin, test_end)
                            .auc;
      }
    }
  }
  checks.Expect(test_auc >= untrained_auc + kMinAucGain,
                "training beats the untrained model by the stated margin");
  checks.Expect(capacity_mismatch == 0 && AllFinite(served),
                "every replica-served logit equals the live model's");
  checks.Expect(open_bad_responses == 0 && capacity_failed == 0,
                "every response carries one finite logit per sample");
  // Each server counts a request when its response is set; every admitted
  // request must have been served, with all of its samples.
  const uint64_t open_completed = open_latency_us.size();
  const uint64_t open_admitted = open_attempted - open_failed;
  checks.Expect(source_server_stats.requests == open_admitted &&
                    open_completed == open_admitted &&
                    source_server_stats.samples == open_admitted * w.request_size,
                "source server served every admitted open-loop request");
  checks.Expect(capacity_stats.requests == capacity_admitted &&
                    capacity_stats.samples == capacity_admitted_samples &&
                    capacity_admitted_samples == capacity_rounds * test_size,
                "capacity server served every request of every round");
  checks.Expect(cuts_failed == 0 && generations_failed == 0,
                "every cut reached the replica");

  // ---------------------------------------------------------------- report
  const uint64_t requests_attempted = open_attempted + capacity_attempted;
  const uint64_t requests_failed = open_failed + open_errors + capacity_failed;
  const uint64_t attempted =
      requests_attempted + cuts_attempted + generations_attempted;
  const uint64_t failed = requests_failed + cuts_failed + generations_failed;
  std::printf("# workload %s seed %llu: nproc %zu, backward threads %zu, "
              "server workers %zu, simd %s\n",
              w.name, static_cast<unsigned long long>(args.seed), nproc,
              backward_threads, server_workers, cafe::simd::ActiveTierName());
  std::printf("# samples: train steps %llu (%llu examples, avg loss %.4f), "
              "open-loop requests %llu, capacity requests %llu in %llu rounds, "
              "cuts %llu, replica generations %llu\n",
              static_cast<unsigned long long>(step),
              static_cast<unsigned long long>(examples),
              loss_sum / static_cast<double>(std::max<uint64_t>(examples, 1)),
              static_cast<unsigned long long>(open_completed),
              static_cast<unsigned long long>(capacity_attempted),
              static_cast<unsigned long long>(capacity_rounds),
              static_cast<unsigned long long>(cuts_attempted),
              static_cast<unsigned long long>(generations_attempted));
  std::printf("# failed: requests %llu/%llu, cuts %llu/%llu, "
              "generations %llu/%llu\n",
              static_cast<unsigned long long>(requests_failed),
              static_cast<unsigned long long>(requests_attempted),
              static_cast<unsigned long long>(cuts_failed),
              static_cast<unsigned long long>(cuts_attempted),
              static_cast<unsigned long long>(generations_failed),
              static_cast<unsigned long long>(generations_attempted));
  std::printf("# phases: train %.3fs, capacity %.3fs; untrained AUC %.5f, "
              "capacity p99 %.1fus (limit %.0fus)\n",
              train_seconds, capacity_seconds, untrained_auc,
              Quantile(capacity_latency_us, 0.99), kP99LimitUs);
  if (Quantile(open_latency_us, 0.99) > kP99LimitUs) {
    std::printf("# WARNING: open-loop p99 above the %.0fus limit; the offered "
                "rate is past what this host serves\n", kP99LimitUs);
  }
  for (const std::string& failure : checks.failures()) {
    std::printf("# CHECK FAILED: %s\n", failure.c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"train_examples_per_s", static_cast<double>(examples) / train_seconds,
         "examples/s"},
        {"test_auc", test_auc, "AUC"},
        {"serve_p50_us", Quantile(open_latency_us, 0.5), "us"},
        {"serve_p99_us", WindowedP99(open_latency_us), "us"},
        {"serve_peak_qps", peak_qps, "req/s"},
        {"cut_to_replica_ms", Quantile(cut_to_replica_ms, 0.5), "ms"},
        {"peak_rss_mb", cpu_end.max_rss_mb, "MB"},
    };
  } else {
    const std::vector<Span> spans = tlog->Collect();
    const auto totals = SummarizeSpans(spans);
    auto total_of = [&](const char* name) {
      auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.total_us;
    };
    std::vector<double> step_us;
    for (const Span& s : spans) {
      if (std::strcmp(s.name, "train.step") == 0) {
        step_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    const double steps = static_cast<double>(std::max<uint64_t>(step, 1));
    const double gather = total_of("embed.gather");
    const double scatter = total_of("embed.scatter");
    const double tick = total_of("core.tick");
    const double step_total = total_of("train.step");
    const double dense = step_total - gather - scatter - tick;
    // Distinct ids per step, recomputed from the batches themselves.
    std::vector<double> unique_ids;
    std::vector<uint32_t> ids;
    for (size_t start = 0; start < train_end; start += w.batch_size) {
      const Batch batch =
          stream.Get(start, std::min(w.batch_size, train_end - start));
      ids.assign(batch.categorical,
                 batch.categorical + batch.batch_size * batch.num_fields);
      std::sort(ids.begin(), ids.end());
      unique_ids.push_back(static_cast<double>(
          std::unique(ids.begin(), ids.end()) - ids.begin()));
    }
    const double lookups = static_cast<double>(
        path_stats.hot + path_stats.medium + path_stats.cold);
    metrics = {
        {"train.step_us", Quantile(step_us, 0.5), "us"},
        {"embed.gather_us_per_step", gather / steps, "us"},
        {"embed.scatter_us_per_step", scatter / steps, "us"},
        {"embed.unique_ids_per_step", Quantile(unique_ids, 0.5), "count"},
        {"core.tick_us_per_step", tick / steps, "us"},
        {"core.hot_hit_share",
         lookups > 0 ? static_cast<double>(path_stats.hot) / lookups : 0.0,
         "share"},
        {"core.migrations", static_cast<double>(migrations), "count"},
        {"core.demotions", static_cast<double>(demotions), "count"},
        {"models.dense_us_per_step", dense / steps, "us"},
        {"serve.submit_us", Quantile(submit_us, 0.5), "us"},
        {"serve.gather_us_per_batch",
         total_of("serve.capacity_gather") /
             static_cast<double>(std::max<uint64_t>(capacity_stats.executed_batches, 1)),
         "us"},
        {"serve.samples_per_batch",
         static_cast<double>(capacity_stats.samples) /
             static_cast<double>(std::max<uint64_t>(capacity_stats.executed_batches, 1)),
         "count"},
        {"serve.peak_queue_samples",
         static_cast<double>(source_server_stats.peak_queue_depth), "count"},
        {"serve.generator_late_us", Quantile(late_us, 0.5), "us"},
        {"serve.open_p99_whole_us", Quantile(open_latency_us, 0.99), "us"},
        {"serve.cut_pause_us", Quantile(pause_us, 0.5), "us"},
        {"serve.cut_publish_us", Quantile(publish_us, 0.5), "us"},
        {"serve.cut_bytes", Quantile(cut_bytes, 0.5), "bytes"},
        {"replicate.bytes_sent", static_cast<double>(source_stats.bytes_sent),
         "bytes"},
        {"replicate.ship_apply_ms", Quantile(ship_apply_ms, 0.5), "ms"},
        {"proc.user_cpu_s", cpu_end.user_s, "s"},
        {"proc.sys_cpu_s", cpu_end.sys_s, "s"},
        {"trace.train_examples_per_s",
         static_cast<double>(examples) / train_seconds, "examples/s"},
        {"trace.serve_p50_us", Quantile(open_latency_us, 0.5), "us"},
        {"trace.step_coverage", step_total / (train_seconds * 1e6), "share"},
    };
    // Span dump and per-layer self-time summary.
    const std::string out_dir = ".bench_results";
    if (Status s = cafe::io::EnsureDirectory(out_dir); !s.ok()) {
      checks.Expect(false, "results directory created: " + s.ToString());
    }
    const std::string stem = out_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed);
    if (!WriteSpans(spans, stem + "-spans.tsv")) {
      std::fprintf(stderr, "cannot write %s-spans.tsv\n", stem.c_str());
      checks.Expect(false, "span dump written");
    }
    char header[256];
    std::snprintf(header, sizeof(header),
                  "\"workload\": \"%s\", \"seed\": %llu, \"steps\": %llu, "
                  "\"train_wall_us\": %.3f",
                  w.name, static_cast<unsigned long long>(args.seed),
                  static_cast<unsigned long long>(step), train_seconds * 1e6);
    if (!WriteSummary(totals, header, stem + "-trace.json")) {
      checks.Expect(false, "trace summary written");
    }
    std::printf("# trace: %zu spans written to %s-spans.tsv\n", spans.size(),
                stem.c_str());
    for (const auto& [name, t] : totals) {
      std::printf("#   %-22s %-9s count %8llu  total %12.1fus  self %12.1fus\n",
                  name.c_str(), LayerOf(name).c_str(),
                  static_cast<unsigned long long>(t.count), t.total_us,
                  t.self_us);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks.ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const uint64_t process_start_ns = perfbench::NowNs();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  const perfbench::Workload* workload = perfbench::FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  return perfbench::Run(args, *workload, process_start_ns);
}
