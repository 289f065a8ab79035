// Service benchmark program: sets up a serve-ready Eugene model, runs one
// seeded workload against the public service API for a fixed window, checks
// every answer against the oracle (oracle.hpp) and the service's own
// counters, and prints one JSON result line.
//
//   service_bench --workload <closed_batch|open_mixed|live_pool>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same window,
// then times the benchmark's calls into each layer's public functions from
// outside (replays and short probes after the window) and prints the
// per-layer metrics. README.md documents the workloads, the metrics and
// which end-to-end metric each per-layer metric should move.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "core/eugene_service.hpp"
#include "data/synthetic_images.hpp"
#include "sched/live.hpp"
#include "sched/policy.hpp"
#include "tensor/gemm.hpp"

#include "oracle.hpp"

namespace {

using namespace eugene;
using SteadyClock = std::chrono::steady_clock;

// The process's start, as close as main() can see it; setup_s counts from
// here.
const SteadyClock::time_point g_process_start = SteadyClock::now();

double ms_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Fixed make-up of the set-up and the workloads (README.md "Inputs").

constexpr std::uint64_t kSetupSeed = 7;     // training/calibration data
constexpr std::size_t kTrainSize = 800;
constexpr std::size_t kCalibSize = 400;
constexpr std::size_t kHeldOutSize = 500;
constexpr double kMinHeldOutAccuracy = 0.5;  // chance is 1/10
constexpr std::size_t kPoolSize = 2048;     // distinct request inputs per seed
constexpr double kExitBar = 0.92;           // ServerConfig's default bar

// Fig. 4's largest concurrency level (bench/bench_fig4_scheduling.cpp: N in
// {2, 5, 10, 20} streams, one image per stream every 45 ms on average).
constexpr std::size_t kFig4Concurrency = 20;
constexpr double kFig4InterarrivalMs = 45.0;

constexpr std::size_t kClosedBatch = kFig4Concurrency;

// open_mixed, from a stage time of about 40 us per request on the reference
// host (README.md "Inputs" derives each figure). The interactive deadline
// stays well above the host stalls that can hold a call up before its
// first stage. A burst's batched first stage fills that deadline
// (128 x 40 us), and its full-depth stage compute fills the camera deadline
// (3 x 128 x 40 us), so the serving overhead on top of it decides how much
// of a burst completes.
constexpr double kInteractiveRate = kFig4Concurrency * 1e3 / kFig4InterarrivalMs;  // per s
constexpr double kInteractiveDeadlineMs = 5.0;
constexpr double kInteractiveWeight = 4.0;
constexpr double kCameraPeriodMs = 40.0;    // 25 frames/s
constexpr std::size_t kCameraBurst = 128;
constexpr double kCameraDeadlineMs = 15.0;
constexpr double kSwapPeriodMs = 100.0;

constexpr std::size_t kLiveBatch = kFig4Concurrency;
constexpr double kLiveDeadlineMs = 1000.0;  // does not bind on a healthy run

// Accounting slices: short, so that a run holds slices the host leaves at
// full speed, and long enough to answer over 1000 requests (10 beyond the
// slice's p99) even in a slow state of the host: 1500-2500 on the closed
// loops, about 1800 on open_mixed.
constexpr double kSliceMs = 250.0;
constexpr double kMixedSliceMs = 500.0;

// Replays and probes of the traced run.
constexpr std::size_t kMaxReplayCalls = 250;
constexpr double kProbeSeconds = 1.0;
constexpr std::size_t kLiveProbeCalls = 30;
constexpr std::size_t kSwapProbeSwaps = 10;

// ---------------------------------------------------------------------------
// Small helpers.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_options(int argc, char** argv, Options& o) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && o.seconds > 0.0;
    } else if (key == "--trace") {
      o.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      return false;
    }
  }
  const bool known = o.workload == "closed_batch" || o.workload == "open_mixed" ||
                     o.workload == "live_pool";
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace &&
         known;
}

/// CPU model, ISA flags, GEMM arm, compiler, build type and lock-rank flag,
/// so that figures from different hosts or builds are never compared as one.
void print_fingerprint() {
  std::string model = "unknown";
  std::string flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string value = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model == "unknown") model = value;
    if (key == "flags" && flags.empty()) {
      std::istringstream words(value);
      std::string w;
      while (words >> w)
        if (w == "sse4_2" || w == "avx" || w == "avx2" || w == "fma" || w == "f16c" ||
            w.rfind("avx512", 0) == 0)
          flags += (flags.empty() ? "" : " ") + w;
    }
  }
  std::fprintf(stderr,
               "host: cpu=\"%s\" isa=\"%s\" cpus=%u gemm=%s compiler=\"%s\" "
               "build=%s lock_rank_checks=%d\n",
               model.c_str(), flags.c_str(), std::thread::hardware_concurrency(),
               tensor::gemm_isa_name(tensor::active_gemm_isa()), __VERSION__,
               EUGENE_BENCH_BUILD_TYPE, EUGENE_LOCK_RANK_CHECKS);
}

/// Metrics as printed: name, value, unit, in output order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// The served model, its oracle and the request inputs.

struct Setup {
  double data_s = 0, train_s = 0, calibrate_s = 0, profile_s = 0, total_s = 0;
};

struct Context {
  core::EugeneService service;
  std::size_t handle = 0;
  nn::StagedResNetConfig arch;
  Setup setup;
  /// Clone of the served model taken before serving: the oracle's reference
  /// and the model every replay runs on.
  std::optional<nn::StagedModel> reference_model;
  std::vector<tensor::Tensor> pool;       ///< request inputs, from --seed
  std::vector<bench::Reference> refs;     ///< forward_all of each pool input
  std::vector<std::string> problems;      ///< failed property checks

  std::size_t num_stages() const { return reference_model->num_stages(); }
  void problem(std::string what) {
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
    problems.push_back(std::move(what));
  }
};

void run_setup(Context& ctx) {
  data::SyntheticImageConfig sensor;
  Rng rng(kSetupSeed);
  auto t = SteadyClock::now();
  const data::Dataset train_set = data::generate_images(sensor, kTrainSize, rng);
  const data::Dataset calib_set = data::generate_images(sensor, kCalibSize, rng);
  auto next = SteadyClock::now();
  ctx.setup.data_s = ms_between(t, next) / 1e3;

  t = next;
  ctx.arch.head_hidden = 24;
  nn::StagedTrainConfig training;  // 8 epochs
  ctx.handle = ctx.service.train("bench-vision", train_set, ctx.arch, training);
  next = SteadyClock::now();
  ctx.setup.train_s = ms_between(t, next) / 1e3;

  t = next;
  ctx.service.calibrate(ctx.handle, calib_set);
  next = SteadyClock::now();
  ctx.setup.calibrate_s = ms_between(t, next) / 1e3;

  t = next;
  ctx.service.profile(ctx.handle, {ctx.arch.in_channels, ctx.arch.height, ctx.arch.width});
  next = SteadyClock::now();
  ctx.setup.profile_s = ms_between(t, next) / 1e3;
  ctx.setup.total_s = ms_between(g_process_start, next) / 1e3;
}

bench::Reference reference_of(nn::StagedModel& model, const tensor::Tensor& input) {
  bench::Reference ref;
  for (const nn::StageOutput& out : model.forward_all(input))
    ref.push_back({out.predicted_label, out.confidence});
  return ref;
}

/// Clones the served model, checks its held-out accuracy, and builds the
/// seeded request pool with its references.
void prepare_inputs(Context& ctx, std::uint64_t seed) {
  ctx.reference_model.emplace(ctx.service.registry().pin()->entry(ctx.handle).model.clone());
  nn::StagedModel& model = *ctx.reference_model;
  data::SyntheticImageConfig sensor;

  Rng held_out_rng(kSetupSeed + 1);
  const data::Dataset held_out = data::generate_images(sensor, kHeldOutSize, held_out_rng);
  std::size_t right = 0;
  for (std::size_t i = 0; i < held_out.size(); ++i)
    right += reference_of(model, held_out.samples[i]).back().label == held_out.labels[i];
  const double accuracy = static_cast<double>(right) / static_cast<double>(held_out.size());
  std::fprintf(stderr, "set-up: final-stage held-out accuracy %.3f over %zu inputs\n",
               accuracy, held_out.size());
  if (accuracy < kMinHeldOutAccuracy)
    ctx.problem("held-out accuracy " + std::to_string(accuracy) + " below " +
                std::to_string(kMinHeldOutAccuracy));

  Rng pool_rng(seed * 0x9E3779B97F4A7C15ull + 11);
  data::Dataset pool = data::generate_images(sensor, kPoolSize, pool_rng);
  ctx.pool = std::move(pool.samples);
  ctx.refs.reserve(ctx.pool.size());
  for (const tensor::Tensor& input : ctx.pool) ctx.refs.push_back(reference_of(model, input));
}

// ---------------------------------------------------------------------------
// Accounting. A window is cut into short slices and each timed metric is
// taken per slice. The host slows this process by up to half for stretches
// of 0.1 s to many seconds, so the end-to-end latencies (and the closed
// loops' throughput) are reported at the run's best slice, the figure the
// program reaches while the host lets it run at full speed; the per-layer
// figures are medians over slices. Samples live in buffers sized and
// touched up front and totals in counters, so the benchmark's own memory
// does not grow with the run and peak_rss_mb measures the service.

struct SentRequest {
  std::uint32_t input = 0;  ///< pool index
  std::uint32_t cls = 0;    ///< service class
  double due_ms = 0.0;      ///< when it was due (open loop)
};

/// One answered request as the accounting needs it.
struct Outcome {
  std::uint32_t cls = 0;
  std::size_t stages_run = 0;
  bool expired = false;
  double confidence = 0.0;
  double latency_ms = 0.0;  ///< benchmark clock, from send (closed) or due (open)
  double queue_ms = 0.0;    ///< benchmark clock, until the call started
};

/// One call kept for the traced run's replays.
struct CallRecord {
  std::vector<SentRequest> requests;
  std::vector<std::size_t> stages_run;
};

/// Samples of one quantity within one slice.
class SliceSamples {
 public:
  explicit SliceSamples(std::size_t capacity) : values_(capacity, 0.0f) {}

  void add(double v) {
    if (size_ < values_.size())
      values_[size_++] = static_cast<float>(v);
    else
      ++dropped_;
  }

  /// Nearest-rank quantile of the slice's samples; nullopt when it has none.
  std::optional<double> quantile(double q) {
    if (size_ == 0) return std::nullopt;
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(size_)));
    rank = std::clamp<std::size_t>(rank, 1, size_);
    const auto begin = values_.begin();
    std::nth_element(begin, begin + static_cast<std::ptrdiff_t>(rank - 1),
                     begin + static_cast<std::ptrdiff_t>(size_));
    return values_[rank - 1];
  }

  std::size_t size() const { return size_; }
  std::size_t dropped() const { return dropped_; }
  void clear() { size_ = 0; }

 private:
  std::vector<float> values_;
  std::size_t size_ = 0;
  std::size_t dropped_ = 0;
};

/// Nearest-rank quantile (q in (0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  SliceSamples s(v.size());
  for (double x : v) s.add(x);
  return s.quantile(q).value_or(0.0);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

class Accounting {
 public:
  static constexpr std::size_t kSliceCapacity = std::size_t{1} << 17;

  /// `seconds` is the window (0 for a probe of a fixed number of calls: one
  /// slice, every call recorded), cut into slices of `slice_ms`.
  Accounting(std::size_t num_stages, double seconds, double slice_ms)
      : slice_ms_(slice_ms),
        slices_(seconds > 0.0 ? std::max<std::size_t>(
                                    1, static_cast<std::size_t>(seconds * 1e3 / slice_ms))
                              : 1),
        record_every_ms_(seconds * 1e3 / static_cast<double>(kMaxReplayCalls)),
        ran_stage_(num_stages, 0),
        num_stages_(num_stages) {
    records_.reserve(kMaxReplayCalls + 1);
  }

  void start() { origin_ = SteadyClock::now(); }
  double now_ms() const { return at_ms(SteadyClock::now()); }
  double at_ms(SteadyClock::time_point t) const { return ms_between(origin_, t); }

  /// Books one call that ran from `start_ms` to `end_ms` (window clock).
  /// `batched_first`: the call ran stage 0 as one batch (infer_batch with
  /// two or more requests), so the policy picked only the later stages.
  void book_call(std::span<const SentRequest> requests, std::span<const Outcome> outcomes,
                 double start_ms, double end_ms, double exit_bar, bool batched_first) {
    roll_to(end_ms);
    last_end_ms_ = end_ms;
    ++calls_;
    call_us_ += (end_ms - start_ms) * 1e3;
    sent_ += requests.size();
    if (batch_sizes_.size() <= requests.size()) batch_sizes_.resize(requests.size() + 1, 0);
    ++batch_sizes_[requests.size()];
    for (const Outcome& o : outcomes) {
      ++answered_;
      ++slice_answered_;
      slice_confidence_ += o.confidence;
      latency_.add(o.latency_ms);
      queue_.add(o.queue_ms);
      (o.cls == 0 ? interactive_ : camera_).add(o.latency_ms);
      stage_runs_ += o.stages_run;
      for (std::size_t s = 0; s < std::min(o.stages_run, num_stages_); ++s) ++ran_stage_[s];
      expired_ += o.expired ? 1 : 0;
      early_exits_ +=
          !o.expired && o.stages_run < num_stages_ && o.confidence >= exit_bar ? 1 : 0;
      picks_ += batched_first && o.stages_run > 0 ? o.stages_run - 1 : o.stages_run;
    }
    if (start_ms >= next_record_ms_ && records_.size() < kMaxReplayCalls) {
      CallRecord r;
      r.requests.assign(requests.begin(), requests.end());
      for (const Outcome& o : outcomes) r.stages_run.push_back(o.stages_run);
      records_.push_back(std::move(r));
      next_record_ms_ = start_ms + record_every_ms_;
    }
  }

  /// Books how late the load generator issued a call at `at_ms`.
  void book_lag(double at_ms, double lag_ms) {
    roll_to(at_ms);
    lag_.add(lag_ms);
  }

  void finish(double end_ms) {
    close_slice(end_ms - static_cast<double>(slice_) * slice_ms_);
    window_s_ = end_ms / 1e3;
    const std::size_t dropped = latency_.dropped() + queue_.dropped() + lag_.dropped() +
                                interactive_.dropped() + camera_.dropped();
    if (dropped != 0)
      std::fprintf(stderr, "accounting: %zu samples beyond the slice buffers dropped\n",
                   dropped);
  }

  // The best slice.
  double best_throughput_rps() const { return extreme(throughput_, std::greater<>()); }
  double best_latency_p50_ms() const { return extreme(p50_, std::less<>()); }
  double best_latency_p99_ms() const { return extreme(p99_, std::less<>()); }
  /// Median over the fastest quarter of the slices (lowest p50 latency):
  /// where deadlines bind, the confidence reached follows the host's speed.
  double fast_confidence_mean() const {
    std::vector<std::size_t> order(p50_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return p50_[a] < p50_[b]; });
    order.resize(std::max<std::size_t>(1, order.size() / 4));
    std::vector<double> fast;
    for (std::size_t i : order) fast.push_back(confidence_[i]);
    return median(std::move(fast));
  }
  // Medians over slices.
  double confidence_mean() const { return median(confidence_); }
  double queue_p99_ms() const { return median(queue_p99_); }
  double interactive_p99_ms() const { return median(interactive_p99_); }
  double camera_p99_ms() const { return median(camera_p99_); }
  double lag_p99_ms() const { return median(lag_p99_); }
  bool has_interactive() const { return !interactive_p99_.empty(); }
  bool has_camera() const { return !camera_p99_.empty(); }
  std::size_t smallest_slice() const { return smallest_slice_; }

  // Totals.
  std::size_t sent() const { return sent_; }
  std::size_t answered() const { return answered_; }
  std::size_t calls() const { return calls_; }
  /// Answered requests per second over the whole window.
  double window_throughput_rps() const {
    return window_s_ > 0.0 ? static_cast<double>(answered_) / window_s_ : 0.0;
  }
  double call_us() const { return call_us_; }
  std::size_t stage_runs() const { return stage_runs_; }
  std::size_t ran_stage(std::size_t s) const { return ran_stage_[s]; }
  std::size_t expired() const { return expired_; }
  std::size_t early_exits() const { return early_exits_; }
  std::size_t picks() const { return picks_; }
  const std::vector<std::size_t>& batch_sizes() const { return batch_sizes_; }
  const std::vector<CallRecord>& records() const { return records_; }
  double window_s() const { return window_s_; }

  bench::Tally tally;
  std::uint64_t span_floor = 1;  ///< span ids grow over the run and are never 0

 private:
  /// The first value of `series` that no other one beats; 0 when empty.
  template <class Better>
  static double extreme(const std::vector<double>& series, Better better) {
    if (series.empty()) return 0.0;
    return *std::min_element(series.begin(), series.end(), better);
  }

  void roll_to(double t_ms) {
    while (slice_ + 1 < slices_ && t_ms >= static_cast<double>(slice_ + 1) * slice_ms_) {
      close_slice(slice_ms_);
      ++slice_;
    }
  }

  /// A slice's throughput counts the calls that ended in it over the time
  /// from the previous slice's last call end to its own, so that it does
  /// not step by whole calls; `duration_ms` serves a slice with no call.
  void close_slice(double duration_ms) {
    const double span_ms =
        last_end_ms_ > slice_from_ms_ ? last_end_ms_ - slice_from_ms_ : duration_ms;
    throughput_.push_back(static_cast<double>(slice_answered_) / (span_ms / 1e3));
    slice_from_ms_ = last_end_ms_;
    if (slice_answered_ > 0) {
      smallest_slice_ = std::min(smallest_slice_, slice_answered_);
      p50_.push_back(*latency_.quantile(0.5));
      p99_.push_back(*latency_.quantile(0.99));
      confidence_.push_back(slice_confidence_ / static_cast<double>(slice_answered_));
      queue_p99_.push_back(*queue_.quantile(0.99));
    }
    if (auto q = interactive_.quantile(0.99)) interactive_p99_.push_back(*q);
    if (auto q = camera_.quantile(0.99)) camera_p99_.push_back(*q);
    if (auto q = lag_.quantile(0.99)) lag_p99_.push_back(*q);
    latency_.clear();
    queue_.clear();
    interactive_.clear();
    camera_.clear();
    lag_.clear();
    slice_answered_ = 0;
    slice_confidence_ = 0.0;
  }

  SteadyClock::time_point origin_ = SteadyClock::now();
  const double slice_ms_;
  const std::size_t slices_;
  const double record_every_ms_;
  double next_record_ms_ = 0.0;
  std::size_t slice_ = 0;
  std::size_t slice_answered_ = 0;
  double last_end_ms_ = 0.0;    ///< end of the last booked call
  double slice_from_ms_ = 0.0;  ///< last call end before the open slice
  double slice_confidence_ = 0.0;
  SliceSamples latency_{kSliceCapacity}, queue_{kSliceCapacity}, lag_{kSliceCapacity},
      interactive_{kSliceCapacity}, camera_{kSliceCapacity};
  std::vector<double> throughput_, p50_, p99_, confidence_, queue_p99_, interactive_p99_,
      camera_p99_, lag_p99_;
  std::size_t smallest_slice_ = std::numeric_limits<std::size_t>::max();

  std::size_t sent_ = 0, answered_ = 0, calls_ = 0, stage_runs_ = 0, expired_ = 0,
              early_exits_ = 0, picks_ = 0;
  double call_us_ = 0.0;
  std::vector<std::size_t> ran_stage_;
  std::vector<std::size_t> batch_sizes_;  ///< calls per batch size
  std::vector<CallRecord> records_;
  double window_s_ = 0.0;
  const std::size_t num_stages_;
};

// ---------------------------------------------------------------------------
// Calls into the service.

std::uint32_t draw_input(Rng& rng) {
  return static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<int>(kPoolSize) - 1));
}

serving::ServerConfig closed_config() { return serving::ServerConfig{}; }

serving::ServerConfig mixed_config() {
  serving::ServerConfig config;
  config.classes = {{"interactive", kInteractiveDeadlineMs, kInteractiveWeight},
                    {"camera", kCameraDeadlineMs, 1.0}};
  return config;
}

/// Latency and queue time of one call's requests: closed loops (`ready_ms`
/// set) count latency from the send and queue time from when the client
/// was ready; open loops count both from each request's due time.
void time_outcomes(std::span<const SentRequest> requests, std::span<Outcome> outcomes,
                   double start_ms, double end_ms, std::optional<double> ready_ms) {
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const double from = ready_ms.has_value() ? start_ms : requests[i].due_ms;
    outcomes[i].cls = requests[i].cls;
    outcomes[i].latency_ms = end_ms - from;
    outcomes[i].queue_ms = start_ms - (ready_ms.has_value() ? *ready_ms : from);
  }
}

/// Scratch reused across calls, so steady-state calls allocate nothing in
/// the benchmark beyond what the service itself does.
struct CallScratch {
  std::vector<serving::InferenceRequest> batch;
  std::vector<tensor::Tensor> inputs;
  std::vector<bench::Expect> expects;
  std::vector<bench::Answer> answers;
  std::vector<Outcome> outcomes;
};

/// Start and end of one call on the steady clock.
struct CallTimes {
  SteadyClock::time_point start, end;
};

/// One infer_batch call of `requests`: checks every answer into `tally` and
/// leaves each request's stages, expiry and confidence in scratch.outcomes.
CallTimes infer_call(Context& ctx, const serving::ServerConfig& config,
                     std::span<const SentRequest> requests, CallScratch& scratch,
                     std::uint64_t& span_floor, bench::Tally& tally) {
  const std::size_t count = requests.size();
  scratch.batch.resize(count);
  scratch.expects.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    scratch.batch[i].input = ctx.pool[requests[i].input];
    scratch.batch[i].service_class = requests[i].cls;
    scratch.expects[i] = {&ctx.refs[requests[i].input], config.early_exit_confidence,
                          config.classes[requests[i].cls].deadline_ms};
  }
  CallTimes t;
  t.start = SteadyClock::now();
  const std::vector<serving::InferenceResponse> responses =
      ctx.service.infer_batch(ctx.handle, scratch.batch, config);
  t.end = SteadyClock::now();

  scratch.answers.resize(responses.size());
  scratch.outcomes.assign(count, Outcome{});
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const serving::InferenceResponse& r = responses[i];
    scratch.answers[i] = {r.span_id, r.label,    r.confidence, r.stages_run,
                          r.expired, r.degraded, r.draining,   r.latency_ms};
    if (i < count) scratch.outcomes[i] = {0, r.stages_run, r.expired, r.confidence, 0, 0};
  }
  bench::check_call(scratch.answers, scratch.expects, span_floor, tally);
  return t;
}

/// One infer_batch call of the run: checks and books its answers.
void serve_call(Context& ctx, const serving::ServerConfig& config, Accounting& acc,
                std::span<const SentRequest> requests, std::optional<double> ready_ms,
                CallScratch& scratch) {
  const CallTimes t = infer_call(ctx, config, requests, scratch, acc.span_floor, acc.tally);
  const double start_ms = acc.at_ms(t.start), end_ms = acc.at_ms(t.end);
  time_outcomes(requests, scratch.outcomes, start_ms, end_ms, ready_ms);
  acc.book_call(requests, scratch.outcomes, start_ms, end_ms, config.early_exit_confidence,
                config.batch_first_stage && requests.size() >= 2);
}

// ---- closed_batch ----------------------------------------------------------

/// One client sends kClosedBatch same-shape default-class requests and
/// sends the next batch only when the previous one has returned.
void run_closed_batch(Context& ctx, double seconds, Rng& rng, Accounting& acc) {
  const serving::ServerConfig config = closed_config();
  CallScratch scratch;
  std::vector<SentRequest> requests(kClosedBatch);
  acc.start();
  double ready_ms = 0.0;
  while (acc.now_ms() < seconds * 1e3) {
    for (SentRequest& r : requests) r = {draw_input(rng), 0, 0.0};
    const double send_ms = acc.now_ms();
    acc.book_lag(send_ms, send_ms - ready_ms);
    serve_call(ctx, config, acc, requests, ready_ms, scratch);
    ready_ms = acc.now_ms();
  }
  acc.finish(ready_ms);
}

// ---- open_mixed ------------------------------------------------------------

/// The seeded arrival schedule: Poisson interactive arrivals plus periodic
/// camera bursts, sorted by due time.
std::vector<SentRequest> mixed_schedule(double seconds, Rng& rng) {
  std::vector<SentRequest> schedule;
  const double horizon_ms = seconds * 1e3;
  for (double due = 0.0;;) {
    due += -std::log(1.0 - rng.uniform()) * 1e3 / kInteractiveRate;
    if (due >= horizon_ms) break;
    schedule.push_back({draw_input(rng), 0, due});
  }
  for (double due = rng.uniform() * kCameraPeriodMs; due < horizon_ms;
       due += kCameraPeriodMs)
    for (std::size_t f = 0; f < kCameraBurst; ++f) schedule.push_back({draw_input(rng), 1, due});
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const SentRequest& a, const SentRequest& b) { return a.due_ms < b.due_ms; });
  return schedule;
}

/// Hot swaps a clone of the same weights at a fixed cadence until stopped.
class Swapper {
 public:
  Swapper(Context& ctx, double period_ms) : ctx_(ctx), period_ms_(period_ms) {
    thread_ = std::thread([this] { loop(); });
  }
  Swapper(const Swapper&) = delete;
  Swapper& operator=(const Swapper&) = delete;
  ~Swapper() { stop(); }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Valid once stopped.
  const std::vector<double>& swap_ms() const { return swap_ms_; }
  const std::string& error() const { return error_; }

 private:
  void loop() {
    try {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!wake_.wait_for(lock, std::chrono::duration<double, std::milli>(period_ms_),
                             [this] { return stopping_; })) {
        lock.unlock();
        nn::StagedModel next =
            ctx_.service.registry().pin()->entry(ctx_.handle).model.clone();
        const auto start = SteadyClock::now();
        ctx_.service.swap_model(ctx_.handle, std::move(next));
        swap_ms_.push_back(ms_between(start, SteadyClock::now()));
        lock.lock();
      }
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  Context& ctx_;
  const double period_ms_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::vector<double> swap_ms_;
  std::string error_;
  std::thread thread_;  // last: started after every member it uses
};

/// Open loop: a single dispatcher hands every request of `schedule` that
/// has come due to the next infer_batch call.
void open_loop(Context& ctx, const serving::ServerConfig& config,
               const std::vector<SentRequest>& schedule, Accounting& acc) {
  CallScratch scratch;
  acc.start();
  bool waited = true;  // the first call follows an idle generator
  std::size_t next = 0;
  while (next < schedule.size()) {
    const double now_ms = acc.now_ms();
    if (schedule[next].due_ms > now_ms) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(schedule[next].due_ms - now_ms));
      waited = true;
      continue;
    }
    std::size_t end = next;
    while (end < schedule.size() && schedule[end].due_ms <= now_ms) ++end;
    if (waited) acc.book_lag(now_ms, now_ms - schedule[next].due_ms);
    waited = false;
    serve_call(ctx, config, acc, std::span(schedule).subspan(next, end - next), std::nullopt,
               scratch);
    next = end;
  }
  acc.finish(acc.now_ms());
}

/// The open loop of mixed-class arrivals while a second thread hot-swaps
/// the model.
void run_open_mixed(Context& ctx, double seconds, Rng& rng, Accounting& acc,
                    std::vector<double>& swap_ms) {
  const std::vector<SentRequest> schedule = mixed_schedule(seconds, rng);
  Swapper swapper(ctx, kSwapPeriodMs);
  open_loop(ctx, mixed_config(), schedule, acc);
  swapper.stop();
  swap_ms = swapper.swap_ms();
  if (!swapper.error().empty()) ctx.problem("swap_model failed: " + swapper.error());
}

// ---- live_pool -------------------------------------------------------------

/// Workers of the live pool: two on a host with four or more CPUs, else one,
/// so that the scheduling thread and the client keep a CPU of their own.
std::size_t live_workers() {
  const unsigned cpus = std::thread::hardware_concurrency();
  return cpus >= 4 ? 2 : 1;
}

/// Replicas of the served model and the run_live configuration.
struct LivePool {
  serving::ModelRegistry::ViewPtr view;  ///< keeps the curves alive
  std::vector<std::unique_ptr<nn::StagedModel>> replicas;
  sched::LiveConfig config;
  double replicate_ms = 0.0;

  std::size_t workers() const { return replicas.size(); }
};

LivePool make_live_pool(Context& ctx) {
  LivePool pool;
  pool.view = ctx.service.registry().pin();
  const auto start = SteadyClock::now();
  pool.replicas = sched::replicate_staged_model(pool.view->entry(ctx.handle).model,
                                                live_workers());
  pool.replicate_ms = ms_between(start, SteadyClock::now());
  pool.config.deadline_ms = kLiveDeadlineMs;
  pool.config.early_exit_confidence = kExitBar;
  pool.config.lifecycle = &ctx.service.lifecycle();
  pool.config.trace = &ctx.service.trace();
  return pool;
}

/// One run_live call of `requests`: checks every answer into `tally` and
/// leaves each task's stages, expiry and confidence in scratch.outcomes.
CallTimes live_call(Context& ctx, LivePool& pool, std::span<const SentRequest> requests,
                    CallScratch& scratch, bench::Tally& tally) {
  const std::size_t count = requests.size();
  scratch.inputs.resize(count);
  scratch.expects.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    scratch.inputs[i] = ctx.pool[requests[i].input];
    scratch.expects[i] = {&ctx.refs[requests[i].input], pool.config.early_exit_confidence,
                          pool.config.deadline_ms};
  }
  CallTimes t;
  t.start = SteadyClock::now();
  const std::vector<sched::LiveTaskResult> results = sched::run_live(
      pool.replicas, pool.view->entry(ctx.handle).curves, scratch.inputs, pool.config);
  t.end = SteadyClock::now();

  scratch.answers.resize(results.size());
  scratch.outcomes.assign(count, Outcome{});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sched::LiveTaskResult& r = results[i];
    // Task ids must be the positions: a shifted id is checked as a
    // duplicate at one position and a missing answer at another.
    scratch.answers[i] = {r.task_id == i ? r.task_id : count + r.task_id,
                          r.label,    r.confidence, r.stages_run, r.expired,
                          r.degraded, r.drained,    r.latency_ms};
    if (i < count) scratch.outcomes[i] = {0, r.stages_run, r.expired, r.confidence, 0, 0};
  }
  std::uint64_t task_floor = 0;  // task ids restart every call
  bench::check_call(scratch.answers, scratch.expects, task_floor, tally);
  return t;
}

/// Closed loop of run_live calls of kLiveBatch tasks over fresh replicas:
/// for `seconds`, or `max_calls` calls when set (the traced run's probe).
/// Returns the pool it served with.
LivePool run_live_loop(Context& ctx, double seconds, std::size_t max_calls, Rng& rng,
                       Accounting& acc) {
  LivePool pool = make_live_pool(ctx);
  CallScratch scratch;
  std::vector<SentRequest> requests(kLiveBatch);
  acc.start();
  double ready_ms = 0.0;
  for (std::size_t c = 0;
       max_calls > 0 ? c < max_calls : acc.now_ms() < seconds * 1e3; ++c) {
    for (SentRequest& r : requests) r = {draw_input(rng), 0, 0.0};
    const double send_ms = acc.now_ms();
    acc.book_lag(send_ms, send_ms - ready_ms);
    const CallTimes t = live_call(ctx, pool, requests, scratch, acc.tally);
    const double start_ms = acc.at_ms(t.start), end_ms = acc.at_ms(t.end);
    time_outcomes(requests, scratch.outcomes, start_ms, end_ms, ready_ms);
    acc.book_call(requests, scratch.outcomes, start_ms, end_ms,
                  pool.config.early_exit_confidence, false);
    ready_ms = acc.now_ms();
  }
  acc.finish(ready_ms);
  return pool;
}

// ---------------------------------------------------------------------------
// Cross-checks against the service's own counters.

std::uint64_t counter_of(const telemetry::MetricsSnapshot& m, const std::string& name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

std::uint64_t histogram_count(const telemetry::MetricsSnapshot& m, const std::string& name) {
  const auto it = m.histograms.find(name);
  return it == m.histograms.end() ? 0 : it->second.count;
}

/// Requests sent equal the request counter's delta, and for every stage the
/// answers that ran it equal the stage latency histogram's delta.
void check_counters(Context& ctx, const Accounting& acc,
                    const telemetry::MetricsSnapshot& before,
                    const telemetry::MetricsSnapshot& after, const std::string& requests,
                    const std::string& stage_prefix) {
  const std::uint64_t counted = counter_of(after, requests) - counter_of(before, requests);
  if (counted != acc.sent())
    ctx.problem(requests + " grew by " + std::to_string(counted) + " for " +
                std::to_string(acc.sent()) + " requests sent");
  for (std::size_t s = 0; s < ctx.num_stages(); ++s) {
    const std::string name = stage_prefix + std::to_string(s);
    const std::uint64_t recorded = histogram_count(after, name) - histogram_count(before, name);
    if (recorded != acc.ran_stage(s))
      ctx.problem(name + " count grew by " + std::to_string(recorded) + " for " +
                  std::to_string(acc.ran_stage(s)) + " answered stage runs");
  }
}

// ---------------------------------------------------------------------------
// End-to-end metrics.

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// `scheduled`: an arrival schedule, not the program, sets the throughput,
/// so it is taken over the whole window.
std::vector<Metric> end_to_end(const Context& ctx, const Accounting& acc, bool scheduled) {
  return {
      {"setup_s", ctx.setup.total_s, "s"},
      {"throughput_rps", scheduled ? acc.window_throughput_rps() : acc.best_throughput_rps(),
       "requests/s"},
      {"latency_p50_ms", acc.best_latency_p50_ms(), "ms"},
      {"latency_p99_ms", acc.best_latency_p99_ms(), "ms"},
      {"confidence_mean", acc.fast_confidence_mean(), "1"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// ---------------------------------------------------------------------------
// Per-layer timing from outside (--trace 1).

/// Times `fn` over `reps` rounds and returns the median seconds per round.
double median_seconds(std::size_t reps, const std::function<void()>& fn) {
  std::vector<double> s;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = SteadyClock::now();
    fn();
    s.push_back(ms_between(start, SteadyClock::now()) / 1e3);
  }
  return median(std::move(s));
}

struct GemmFigures {
  double peak_gflops = 0.0;
  double conv_gflops = 0.0;
};

GemmFigures time_gemm(const nn::StagedResNetConfig& arch) {
  GemmFigures g;
  Rng rng(3);
  auto random_vector = [&rng](std::size_t n) {
    std::vector<float> v(n);
    for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;
  };
  constexpr std::size_t kSquare = 256;
  {
    const std::vector<float> a = random_vector(kSquare * kSquare);
    const std::vector<float> b = random_vector(kSquare * kSquare);
    std::vector<float> c(kSquare * kSquare);
    constexpr std::size_t kCalls = 8;
    const double s = median_seconds(9, [&] {
      for (std::size_t i = 0; i < kCalls; ++i)
        tensor::gemm(kSquare, kSquare, kSquare, a.data(), kSquare, false, b.data(), kSquare,
                     false, 0.0f, c.data(), kSquare);
    });
    g.peak_gflops = 2.0 * kSquare * kSquare * kSquare * kCalls / s / 1e9;
  }
  // The model's convolutions as GEMMs: weights [C_out x C_in*9] times the
  // im2col matrix [C_in*9 x H*W], per sample, stage by stage.
  struct Shape {
    std::size_t m, n, k;
  };
  std::vector<Shape> shapes;
  std::size_t channels = arch.in_channels, h = arch.height, w = arch.width;
  for (std::size_t s = 0; s < arch.stage_channels.size(); ++s) {
    if (s > 0 && arch.downsample_between_stages) {
      h /= 2;
      w /= 2;
    }
    const std::size_t out = arch.stage_channels[s];
    shapes.push_back({out, h * w, channels * 9});
    for (std::size_t b = 0; b < arch.blocks_per_stage; ++b) {
      shapes.push_back({out, h * w, out * 9});
      shapes.push_back({out, h * w, out * 9});
    }
    channels = out;
  }
  double flops = 0.0;
  double seconds = 0.0;
  for (const Shape& sh : shapes) {
    const std::vector<float> a = random_vector(sh.m * sh.k);
    const std::vector<float> b = random_vector(sh.k * sh.n);
    std::vector<float> c(sh.m * sh.n);
    constexpr std::size_t kCalls = 400;
    seconds += median_seconds(7, [&] {
      for (std::size_t i = 0; i < kCalls; ++i)
        tensor::gemm(sh.m, sh.n, sh.k, a.data(), sh.k, false, b.data(), sh.n, false, 0.0f,
                     c.data(), sh.n);
    });
    flops += 2.0 * static_cast<double>(sh.m * sh.n * sh.k) * kCalls;
  }
  g.conv_gflops = flops / seconds / 1e9;
  return g;
}

struct StageFigures {
  std::vector<double> stage_us;  ///< per-sample run_stage, per stage
  double stage0_batch_us = 0.0;  ///< run_stage_batch per sample at kClosedBatch
  double roofline_frac = 0.0;
};

StageFigures time_stages(Context& ctx, double gemm_peak_gflops) {
  nn::StagedModel& model = *ctx.reference_model;
  const std::size_t stages = model.num_stages();
  StageFigures f;
  constexpr std::size_t kSamples = 256;
  constexpr std::size_t kRounds = 5;
  std::vector<std::vector<double>> per_round(stages);
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<double> total(stages, 0.0);
    for (std::size_t i = 0; i < kSamples; ++i) {
      tensor::Tensor features = ctx.pool[i % ctx.pool.size()];
      for (std::size_t s = 0; s < stages; ++s) {
        const auto start = SteadyClock::now();
        nn::StageOutput out = model.run_stage(s, features);
        total[s] += ms_between(start, SteadyClock::now()) * 1e3;
        features = std::move(out.features);
      }
    }
    for (std::size_t s = 0; s < stages; ++s) per_round[s].push_back(total[s] / kSamples);
  }
  double flops = 0.0, us = 0.0;
  for (std::size_t s = 0; s < stages; ++s) {
    f.stage_us.push_back(median(per_round[s]));
    flops += model.stage_flops(s);
    us += f.stage_us.back();
  }
  f.roofline_frac = flops / (us * 1e-6) / (gemm_peak_gflops * 1e9);

  std::vector<const tensor::Tensor*> inputs;
  for (std::size_t i = 0; i < kClosedBatch; ++i) inputs.push_back(&ctx.pool[i]);
  std::vector<nn::StageBatchItem> items(kClosedBatch);
  nn::ScratchArena arena;
  constexpr std::size_t kBatches = 40;
  const double s = median_seconds(kRounds, [&] {
    for (std::size_t b = 0; b < kBatches; ++b) {
      arena.reset();
      model.run_stage_batch(0, inputs, items, arena);
    }
  });
  f.stage0_batch_us = s * 1e6 / (kBatches * kClosedBatch);
  return f;
}

double time_gp_predict_ns(const gp::ConfidenceCurveModel& curves, std::size_t stages) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t from = 0; from < stages; ++from)
    for (std::size_t to = from + 1; to < stages; ++to) pairs.emplace_back(from, to);
  constexpr std::size_t kCalls = 20000;
  double sink = 0.0;
  const double s = median_seconds(5, [&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      const auto [from, to] = pairs[i % pairs.size()];
      sink += curves.predict(from, to, 0.05 + 0.9 * static_cast<double>(i % 97) / 97.0);
    }
  });
  if (sink < 0.0) std::fprintf(stderr, "gp: negative confidence sum\n");
  return s * 1e9 / kCalls;
}

/// Replays GreedyUtilityPolicy::pick on the runnable sets the recorded calls
/// produced: each call's requests advance to the stages their answers
/// reported, with stage 0 batched for calls of two or more, as
/// process_batch runs them. Returns microseconds per pick.
double replay_picks(Context& ctx, const std::vector<CallRecord>& records,
                    const serving::ServerConfig& config) {
  const serving::ModelRegistry::ViewPtr view = ctx.service.registry().pin();
  sched::GpUtilityEstimator estimator(view->entry(ctx.handle).curves);
  std::vector<double> weights;
  for (const auto& c : config.classes) weights.push_back(c.utility_weight);
  double pick_us = 0.0;
  std::size_t picks = 0;
  std::vector<sched::TaskView> runnable;
  for (const CallRecord& call : records) {
    const std::size_t n = call.requests.size();
    sched::GreedyUtilityPolicy policy(estimator, config.lookahead);
    policy.set_service_weights(weights);
    std::vector<std::vector<double>> observed(n);
    std::vector<bool> done(n, false);
    auto advance = [&](std::size_t i) {
      const std::size_t stage = observed[i].size();
      observed[i].push_back(ctx.refs[call.requests[i].input][stage].confidence);
      policy.on_stage_complete(i, stage, observed[i].back());
      done[i] = observed[i].size() >= call.stages_run[i];
    };
    for (std::size_t i = 0; i < n; ++i) {
      done[i] = call.stages_run[i] == 0;
      if (n >= 2 && !done[i]) advance(i);
    }
    for (;;) {
      runnable.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (done[i]) continue;
        sched::TaskView v;
        v.task_id = i;
        v.service = call.requests[i].cls;
        v.stages_done = observed[i].size();
        v.total_stages = ctx.num_stages();
        v.deadline_ms = config.classes[v.service].deadline_ms;
        v.observed_confidence = observed[i];
        runnable.push_back(v);
      }
      if (runnable.empty()) break;
      const auto start = SteadyClock::now();
      const std::optional<std::size_t> choice = policy.pick(runnable, 0.0);
      pick_us += ms_between(start, SteadyClock::now()) * 1e3;
      ++picks;
      if (!choice.has_value() || done[*choice]) break;
      advance(*choice);
    }
  }
  return picks > 0 ? pick_us / static_cast<double>(picks) : 0.0;
}

/// Scratch of the compute replays.
struct ReplayScratch {
  nn::ScratchArena arena;
  std::vector<nn::StageBatchItem> items;
  std::vector<const tensor::Tensor*> batched;  ///< inputs that ran stage 0 in the batch
  std::vector<std::size_t> members;            ///< their positions in the call
};

/// Replays on the reference model the stage compute of one call whose
/// answers ran `stages_run` stages, as the service ran it: with
/// `batch_first`, stage 0 of every request that ran it as one batch when
/// there are two or more, then every other stage per sample. Returns
/// microseconds.
double replay_us(Context& ctx, std::span<const SentRequest> requests,
                 std::span<const std::size_t> stages_run, bool batch_first,
                 ReplayScratch& r) {
  nn::StagedModel& model = *ctx.reference_model;
  const auto start = SteadyClock::now();
  r.batched.clear();
  r.members.clear();
  for (std::size_t i = 0; i < requests.size(); ++i)
    if (stages_run[i] > 0) {
      r.batched.push_back(&ctx.pool[requests[i].input]);
      r.members.push_back(i);
    }
  const bool batched = batch_first && r.batched.size() >= 2;
  if (batched) {
    if (r.items.size() < r.batched.size()) r.items.resize(r.batched.size());
    r.arena.reset();
    model.run_stage_batch(0, r.batched,
                          std::span<nn::StageBatchItem>(r.items.data(), r.batched.size()),
                          r.arena);
  }
  for (std::size_t b = 0; b < r.members.size(); ++b) {
    const std::size_t i = r.members[b];
    std::size_t s = batched ? 1 : 0;
    tensor::Tensor features = batched ? r.items[b].features : ctx.pool[requests[i].input];
    for (; s < stages_run[i]; ++s) features = model.run_stage(s, features).features;
  }
  return ms_between(start, SteadyClock::now()) * 1e3;
}

/// Call and replayed compute times of re-issued calls.
struct Pairs {
  double call_us = 0.0;
  double compute_us = 0.0;
  std::size_t requests = 0;
};

/// Re-issues each recorded call through `issue` and replays, right beside
/// it, the stage compute its answers report, so that the call and its
/// compute are timed in the same state of the host. Odd calls replay first,
/// with the stages the window's answers reported; if the re-issued call ran
/// other stages, its compute is replayed again after it.
template <typename Issue>
Pairs pair_calls(Context& ctx, const std::vector<CallRecord>& records, bool batch_first,
                 CallScratch& scratch, Issue&& issue) {
  ReplayScratch r;
  Pairs p;
  std::vector<std::size_t> stages;
  for (std::size_t k = 0; k < records.size(); ++k) {
    const CallRecord& rec = records[k];
    std::optional<double> compute_us;
    if (k % 2 == 1) compute_us = replay_us(ctx, rec.requests, rec.stages_run, batch_first, r);
    const CallTimes t = issue(std::span<const SentRequest>(rec.requests));
    stages.clear();
    for (const Outcome& o : scratch.outcomes) stages.push_back(o.stages_run);
    if (!compute_us.has_value() || stages != rec.stages_run)
      compute_us = replay_us(ctx, rec.requests, stages, batch_first, r);
    p.call_us += ms_between(t.start, t.end) * 1e3;
    p.compute_us += *compute_us;
    p.requests += rec.requests.size();
  }
  return p;
}

double time_pin_ns(Context& ctx) {
  constexpr std::size_t kPins = 100000;
  std::size_t sink = 0;
  const double s = median_seconds(5, [&] {
    for (std::size_t i = 0; i < kPins; ++i) sink += ctx.service.registry().pin()->size();
  });
  if (sink == 0) std::fprintf(stderr, "registry: pinned views were empty\n");
  return s * 1e9 / kPins;
}

double time_trace_record_ns() {
  telemetry::TraceRecorder recorder;
  const telemetry::SpanHandle span = recorder.begin_span(0.0);
  constexpr std::size_t kEvents = 100000;
  const double s = median_seconds(5, [&] {
    for (std::size_t i = 0; i < kEvents; ++i)
      span.event(telemetry::TraceEventKind::kStageDone, static_cast<double>(i), 1, 0, 0.5);
  });
  return s * 1e9 / kEvents;
}

std::uint64_t trace_events(core::EugeneService& service) {
  return service.trace().events().size() + service.trace().dropped();
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Answers of probes and re-issued calls are held to the oracle like the
/// window's, and a wrong answer makes the run incorrect. An answer that
/// carries no stage is only reported: a host stall before a call's first
/// stage can cause it (README.md "Correctness"), and no timing-dependent
/// check may fail a run.
void check_probe(Context& ctx, const bench::Tally& tally, const char* what) {
  const std::size_t no_stage = tally.kinds[static_cast<std::size_t>(bench::Verdict::kNoStage)];
  if (no_stage != 0) std::fprintf(stderr, "%s: %zu answers carried no stage\n", what, no_stage);
  if (tally.failed != no_stage || tally.extra != 0)
    ctx.problem(std::string(what) + ": " + std::to_string(tally.failed - no_stage) +
                " answers failed the oracle");
}

/// What the window produced that the per-layer metrics read.
struct WindowFacts {
  const Accounting* window = nullptr;
  bool serves = false;  ///< the window called infer_batch (else run_live)
  serving::ServerConfig config;
  std::optional<LivePool> live_pool;  ///< the window's pool (live_pool only)
  std::vector<double> swap_ms;  ///< swaps made during the window
  double trace_events_per_request = 0.0;
};

std::vector<Metric> per_layer(Context& ctx, WindowFacts& w) {
  std::vector<Metric> m;
  m.push_back({"setup.data_s", ctx.setup.data_s, "s"});
  m.push_back({"setup.train_s", ctx.setup.train_s, "s"});
  m.push_back({"setup.calibrate_s", ctx.setup.calibrate_s, "s"});
  m.push_back({"setup.profile_s", ctx.setup.profile_s, "s"});

  const GemmFigures gemm = time_gemm(ctx.arch);
  m.push_back({"tensor.gemm_peak_gflops", gemm.peak_gflops, "GFLOP/s"});
  m.push_back({"tensor.conv_gemm_gflops", gemm.conv_gflops, "GFLOP/s"});

  const StageFigures stages = time_stages(ctx, gemm.peak_gflops);
  for (std::size_t s = 0; s < stages.stage_us.size(); ++s)
    m.push_back({"nn.stage_us." + std::to_string(s), stages.stage_us[s], "us"});
  m.push_back({"nn.stage0_batch_us_per_sample", stages.stage0_batch_us, "us"});
  m.push_back({"nn.roofline_frac", stages.roofline_frac, "1"});
  const Accounting& win = *w.window;
  m.push_back({"nn.stages_per_request",
               static_cast<double>(win.stage_runs()) /
                   static_cast<double>(std::max<std::size_t>(1, win.answered())),
               "count"});

  {
    const serving::ModelRegistry::ViewPtr view = ctx.service.registry().pin();
    m.push_back({"gp.predict_ns",
                 time_gp_predict_ns(view->entry(ctx.handle).curves, ctx.num_stages()), "ns"});
  }

  // infer_batch traffic: the window's when it served through infer_batch,
  // else a one-second open_mixed probe's (no swaps). The class latencies
  // come from the probe whenever the window has no request of that class.
  std::optional<Accounting> probe;
  auto serving_probe = [&]() -> const Accounting& {
    if (!probe.has_value()) {
      probe.emplace(ctx.num_stages(), kProbeSeconds, kMixedSliceMs);
      Rng rng(99);
      open_loop(ctx, mixed_config(), mixed_schedule(kProbeSeconds, rng), *probe);
      check_probe(ctx, probe->tally, "serving probe");
    }
    return *probe;
  };
  const Accounting& served = w.serves ? win : serving_probe();
  const serving::ServerConfig served_config = w.serves ? w.config : mixed_config();
  m.push_back({"sched.pick_us", replay_picks(ctx, served.records(), served_config), "us"});
  m.push_back({"sched.picks_per_request",
               static_cast<double>(served.picks()) /
                   static_cast<double>(std::max<std::size_t>(1, served.answered())),
               "count"});

  CallScratch scratch;
  bench::Tally reissued;
  std::uint64_t span_floor = 1;
  const Pairs pairs = pair_calls(
      ctx, served.records(), served_config.batch_first_stage, scratch,
      [&](std::span<const SentRequest> requests) {
        return infer_call(ctx, served_config, requests, scratch, span_floor, reissued);
      });
  check_probe(ctx, reissued, "re-issued infer_batch calls");
  const double reissued_requests = static_cast<double>(pairs.requests);
  m.push_back({"serving.call_us_per_request", pairs.call_us / reissued_requests, "us"});
  m.push_back({"serving.compute_us_per_request", pairs.compute_us / reissued_requests, "us"});
  m.push_back({"serving.overhead_us_per_request",
               (pairs.call_us - pairs.compute_us) / reissued_requests, "us"});
  m.push_back({"serving.queue_ms_p99", served.queue_p99_ms(), "ms"});
  double batch_mean = 0.0, batch_p99 = 0.0;
  {
    const std::vector<std::size_t>& sizes = served.batch_sizes();
    std::size_t seen = 0;
    for (std::size_t b = 0; b < sizes.size(); ++b) {
      batch_mean += static_cast<double>(b * sizes[b]);
      seen += sizes[b];
      if (batch_p99 == 0.0 && static_cast<double>(seen) >= 0.99 * static_cast<double>(served.calls()))
        batch_p99 = static_cast<double>(b);
    }
    batch_mean /= static_cast<double>(std::max<std::size_t>(1, served.calls()));
  }
  m.push_back({"serving.batch_size_mean", batch_mean, "count"});
  m.push_back({"serving.batch_size_p99", batch_p99, "count"});
  const bool mixed = w.serves && served_config.classes.size() > 1;
  m.push_back({"serving.interactive_latency_p99_ms",
               mixed && served.has_interactive() ? served.interactive_p99_ms()
                                                 : serving_probe().interactive_p99_ms(),
               "ms"});
  m.push_back({"serving.camera_latency_p99_ms",
               mixed && served.has_camera() ? served.camera_p99_ms()
                                            : serving_probe().camera_p99_ms(),
               "ms"});
  const double answered = static_cast<double>(std::max<std::size_t>(1, served.answered()));
  m.push_back({"serving.expired_per_1k", 1e3 * static_cast<double>(served.expired()) / answered,
               "count"});
  m.push_back({"serving.early_exits_per_1k",
               1e3 * static_cast<double>(served.early_exits()) / answered, "count"});

  m.push_back({"registry.pin_ns", time_pin_ns(ctx), "ns"});
  std::vector<double> swaps = w.swap_ms;
  if (swaps.empty()) {  // no swaps in the window: a short probe
    for (std::size_t i = 0; i < kSwapProbeSwaps; ++i) {
      nn::StagedModel next = ctx.service.registry().pin()->entry(ctx.handle).model.clone();
      const auto start = SteadyClock::now();
      ctx.service.swap_model(ctx.handle, std::move(next));
      swaps.push_back(ms_between(start, SteadyClock::now()));
    }
  }
  m.push_back({"registry.swap_ms", mean(swaps), "ms"});
  m.push_back({"registry.swaps", static_cast<double>(swaps.size()), "count"});

  // run_live traffic: the window's on live_pool, else a short probe.
  std::optional<Accounting> live_probe;
  if (w.serves) {
    live_probe.emplace(ctx.num_stages(), 0.0, kSliceMs);
    Rng rng(98);
    w.live_pool.emplace(run_live_loop(ctx, 0.0, kLiveProbeCalls, rng, *live_probe));
    check_probe(ctx, live_probe->tally, "live probe");
  }
  const Accounting& live = w.serves ? *live_probe : win;
  LivePool& pool = *w.live_pool;
  bench::Tally live_reissued;
  const Pairs live_pairs =
      pair_calls(ctx, live.records(), false, scratch, [&](std::span<const SentRequest> requests) {
        return live_call(ctx, pool, requests, scratch, live_reissued);
      });
  check_probe(ctx, live_reissued, "re-issued run_live calls");
  const double workers = static_cast<double>(pool.workers());
  m.push_back({"live.call_us", live.call_us() / static_cast<double>(live.calls()), "us"});
  m.push_back({"live.replicate_ms", pool.replicate_ms, "ms"});
  m.push_back({"live.overhead_us_per_task",
               (live_pairs.call_us - live_pairs.compute_us / workers) /
                   static_cast<double>(live_pairs.requests),
               "us"});
  m.push_back({"live.worker_busy_frac", live_pairs.compute_us / (workers * live_pairs.call_us),
               "1"});

  m.push_back({"trace.record_ns", time_trace_record_ns(), "ns"});
  m.push_back({"trace.events_per_request", w.trace_events_per_request, "count"});
  m.push_back({"load.generator_lag_ms_p99", win.lag_p99_ms(), "ms"});
  return m;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(const Options& opt) {
  print_fingerprint();
  Context ctx;
  run_setup(ctx);
  std::fprintf(stderr,
               "set-up: %.3f s (data %.3f, train %.3f, calibrate %.3f, profile %.3f)\n",
               ctx.setup.total_s, ctx.setup.data_s, ctx.setup.train_s, ctx.setup.calibrate_s,
               ctx.setup.profile_s);
  prepare_inputs(ctx, opt.seed);

  Rng rng(opt.seed * 0xD1B54A32D192ED69ull + 5);
  const telemetry::MetricsSnapshot before =
      telemetry::parse_metrics_text(ctx.service.metrics_text());
  const std::uint64_t events_before = trace_events(ctx.service);

  const bool scheduled = opt.workload == "open_mixed";
  Accounting window(ctx.num_stages(), opt.seconds, scheduled ? kMixedSliceMs : kSliceMs);
  WindowFacts facts;
  facts.window = &window;
  facts.serves = opt.workload != "live_pool";
  if (opt.workload == "closed_batch") {
    facts.config = closed_config();
    run_closed_batch(ctx, opt.seconds, rng, window);
  } else if (opt.workload == "open_mixed") {
    facts.config = mixed_config();
    run_open_mixed(ctx, opt.seconds, rng, window, facts.swap_ms);
  } else {
    facts.live_pool.emplace(run_live_loop(ctx, opt.seconds, 0, rng, window));
  }

  const telemetry::MetricsSnapshot after =
      telemetry::parse_metrics_text(ctx.service.metrics_text());
  facts.trace_events_per_request =
      static_cast<double>(trace_events(ctx.service) - events_before) /
      static_cast<double>(std::max<std::size_t>(1, window.sent()));
  if (facts.serves)
    check_counters(ctx, window, before, after, "serving.requests",
                   "serving.stage_latency_ms.stage");
  else
    check_counters(ctx, window, before, after, "sched.live.tasks",
                   "sched.stage_latency_ms.stage");
  if (window.tally.extra != 0)
    ctx.problem(std::to_string(window.tally.extra) + " answers beyond the requests sent");
  for (std::size_t k = 1; k < window.tally.kinds.size(); ++k)
    if (window.tally.kinds[k] != 0)
      std::fprintf(stderr, "oracle: %zu answers %s\n", window.tally.kinds[k],
                   bench::verdict_name(static_cast<bench::Verdict>(k)));
  if (window.smallest_slice() < 1000)
    std::fprintf(stderr, "note: a slice answered only %zu requests, so its p99 has fewer "
                 "than 10 samples beyond it\n", window.smallest_slice());

  std::vector<Metric> metrics = end_to_end(ctx, window, scheduled);
  std::fprintf(stderr,
               "window: %zu requests in %zu calls over %.3f s, %zu failed; "
               "%zu expired, %zu early exits\n",
               window.sent(), window.calls(), window.window_s(), window.tally.failed,
               window.expired(), window.early_exits());
  std::fprintf(stderr, "slices: confidence median %.4f over all, %.4f over the fastest quarter\n",
               window.confidence_mean(), window.fast_confidence_mean());
  for (const Metric& x : metrics)
    std::fprintf(stderr, "  %s = %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());

  // Probes of the traced run come first: the drain ends serving.
  if (opt.trace) metrics = per_layer(ctx, facts);
  const auto drain_start = SteadyClock::now();
  const core::DrainOutcome drain = ctx.service.begin_drain();
  const double drain_ms = ms_between(drain_start, SteadyClock::now());
  if (!drain.report.completed) ctx.problem("drain did not reach zero in-flight");
  if (opt.trace) metrics.push_back({"lifecycle.drain_ms", drain_ms, "ms"});

  print_result(ctx.problems.empty(), window.tally.checked, window.tally.failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: service_bench --workload <closed_batch|open_mixed|live_pool> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "service_bench: %s\n", e.what());
    return 1;
  }
}
