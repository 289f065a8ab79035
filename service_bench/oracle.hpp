// Answer oracle for the service benchmark.
//
// The reference for one input is the per-stage (label, confidence) of
// StagedModel::forward_all on a clone of the served model, taken before
// serving starts. DESIGN.md §14 promises the batched and per-sample stage
// paths agree bit for bit, so every answer the service returns must match
// the reference at the stage it reports, exactly.
//
// Rules for one answer that reports k = stages_run stages:
//   * a drain rejection, or k == 0, is a failure (no answer was computed);
//   * k must not exceed the model's depth;
//   * label and confidence equal the reference at stage k-1, bit for bit;
//   * no stage before k-1 reached the early-exit bar (no stage ran past an
//     early exit);
//   * a plain answer (neither expired nor degraded) is complete: k is the
//     model's depth or stage k-1 reached the bar;
//   * an expired answer stopped short of completion, and its own latency is
//     at least its deadline (no expiry before the deadline).
// Expired and degraded answers with at least one stage are valid imprecise
// answers. Answers are matched to requests by position; a request without
// an answer is missing, and an answer whose id was already seen (in the
// call, or below the caller's id floor) is a duplicate.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

namespace bench {

/// What one stage of the reference model reports for one input.
struct StageRef {
  std::size_t label = 0;
  float confidence = 0.0f;
};

/// Per-stage reference for one input, stage 0 first.
using Reference = std::vector<StageRef>;

/// One answer as the service reported it.
struct Answer {
  std::uint64_t id = 0;  ///< span id (infer_batch) or task id (run_live)
  std::size_t label = 0;
  double confidence = 0.0;
  std::size_t stages_run = 0;
  bool expired = false;
  bool degraded = false;
  bool draining = false;
  double latency_ms = 0.0;  ///< the program's own latency for this answer
};

/// What the oracle expects of the answer to one request.
struct Expect {
  const Reference* ref = nullptr;
  double exit_bar = 2.0;     ///< early-exit confidence (>1: no early exit)
  double deadline_ms = 0.0;  ///< the request's deadline (inf: none)
};

enum class Verdict : std::size_t {
  kOk = 0,
  kDraining,         ///< drain rejection
  kNoStage,          ///< answer carries no stage
  kBeyondDepth,      ///< more stages than the model has
  kWrongLabel,
  kWrongConfidence,  ///< confidence differs from the reference in any bit
  kPastEarlyExit,    ///< a stage ran after one that reached the exit bar
  kIncomplete,       ///< plain answer that stopped without reason
  kEarlyExpiry,      ///< expired before its deadline
  kExpiredComplete,  ///< flagged expired although it had finished
  kMissing,          ///< request without an answer
  kDuplicate,        ///< answer id seen before, or below the id floor
  kCount,
};

inline const char* verdict_name(Verdict v) {
  static constexpr const char* kNames[] = {
      "ok",           "draining",         "no_stage",     "beyond_depth",
      "wrong_label",  "wrong_confidence", "past_early_exit", "incomplete",
      "early_expiry", "expired_complete", "missing",      "duplicate"};
  return kNames[static_cast<std::size_t>(v)];
}

/// Checks one answer against its reference and rules.
inline Verdict check_answer(const Answer& a, const Expect& e) {
  const Reference& ref = *e.ref;
  if (a.draining) return Verdict::kDraining;
  if (a.stages_run == 0) return Verdict::kNoStage;
  if (a.stages_run > ref.size()) return Verdict::kBeyondDepth;
  const std::size_t last = a.stages_run - 1;
  if (a.label != ref[last].label) return Verdict::kWrongLabel;
  if (a.confidence != static_cast<double>(ref[last].confidence))
    return Verdict::kWrongConfidence;
  for (std::size_t s = 0; s < last; ++s)
    if (static_cast<double>(ref[s].confidence) >= e.exit_bar)
      return Verdict::kPastEarlyExit;
  const bool finished = a.stages_run == ref.size() ||
                        static_cast<double>(ref[last].confidence) >= e.exit_bar;
  if (a.expired) {
    if (finished) return Verdict::kExpiredComplete;
    if (a.latency_ms < e.deadline_ms) return Verdict::kEarlyExpiry;
  } else if (!a.degraded && !finished) {
    return Verdict::kIncomplete;
  }
  return Verdict::kOk;
}

/// Verdict counts over a run.
struct Tally {
  std::size_t checked = 0;  ///< requests checked (answered or missing)
  std::size_t failed = 0;
  std::size_t extra = 0;    ///< answers beyond the requests sent
  std::array<std::size_t, static_cast<std::size_t>(Verdict::kCount)> kinds{};

  void add(Verdict v) {
    ++checked;
    ++kinds[static_cast<std::size_t>(v)];
    if (v != Verdict::kOk) ++failed;
  }
};

/// Checks one call's answers, matched to its requests by position. Answer
/// ids must be unique and at least `id_floor`; on return `id_floor` is one
/// past the largest id seen. A caller whose ids grow across calls (span ids)
/// keeps one floor for the whole run, so an id repeated from any earlier
/// call fails too; a caller whose ids restart every call (task ids) starts
/// each call at 0. Returns the number of failed requests in this call;
/// answers beyond the requests sent are counted in `tally.extra`.
inline std::size_t check_call(std::span<const Answer> answers,
                              std::span<const Expect> expects, std::uint64_t& id_floor,
                              Tally& tally) {
  const std::size_t before = tally.failed;
  const std::size_t matched = answers.size() < expects.size() ? answers.size()
                                                                : expects.size();
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t next_floor = id_floor;
  for (std::size_t i = 0; i < matched; ++i) {
    const std::uint64_t id = answers[i].id;
    if (id < id_floor || !seen.insert(id).second) {
      tally.add(Verdict::kDuplicate);
      continue;
    }
    if (id >= next_floor) next_floor = id + 1;
    tally.add(check_answer(answers[i], expects[i]));
  }
  id_floor = next_floor;
  for (std::size_t i = matched; i < expects.size(); ++i) tally.add(Verdict::kMissing);
  // Answers beyond the requests sent answer nothing that was asked: they
  // are not requests, so they are counted apart from the failed ones.
  tally.extra += answers.size() - matched;
  return tally.failed - before;
}

}  // namespace bench
