// Tests for the answer oracle (oracle.hpp): valid answers of every kind pass,
// and each planted fault is caught with its own verdict. Built and run by
// run.py before every benchmark run.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "oracle.hpp"

namespace {

int g_failures = 0;

void expect_verdict(const char* what, bench::Verdict got, bench::Verdict want) {
  if (got == want) return;
  ++g_failures;
  std::fprintf(stderr, "oracle_test: %s: got %s, want %s\n", what,
               bench::verdict_name(got), bench::verdict_name(want));
}

void expect_eq(const char* what, std::size_t got, std::size_t want) {
  if (got == want) return;
  ++g_failures;
  std::fprintf(stderr, "oracle_test: %s: got %zu, want %zu\n", what, got, want);
}

// Three stages; stage 1 reaches a 0.9 exit bar.
const bench::Reference kRef = {{3, 0.41f}, {3, 0.93f}, {7, 0.97f}};
// Three stages; none reaches the bar.
const bench::Reference kHard = {{1, 0.30f}, {2, 0.55f}, {2, 0.80f}};
constexpr double kBar = 0.9;
constexpr double kDeadline = 5.0;

bench::Answer answer_at(const bench::Reference& ref, std::size_t stages) {
  bench::Answer a;
  a.id = 1;
  a.stages_run = stages;
  a.label = ref[stages - 1].label;
  a.confidence = ref[stages - 1].confidence;
  a.latency_ms = 1.0;
  return a;
}

bench::Verdict check(const bench::Answer& a, const bench::Reference& ref) {
  return bench::check_answer(a, {&ref, kBar, kDeadline});
}

void valid_answers_pass() {
  expect_verdict("early exit at stage 1", check(answer_at(kRef, 2), kRef),
                 bench::Verdict::kOk);
  expect_verdict("hard input runs every stage", check(answer_at(kHard, 3), kHard),
                 bench::Verdict::kOk);
  bench::Answer expired = answer_at(kHard, 2);
  expired.expired = true;
  expired.latency_ms = kDeadline + 0.5;
  expect_verdict("expired after its deadline", check(expired, kHard),
                 bench::Verdict::kOk);
  bench::Answer degraded = answer_at(kHard, 1);
  degraded.degraded = true;
  expect_verdict("degraded with one stage", check(degraded, kHard),
                 bench::Verdict::kOk);
  bench::Answer no_bar = answer_at(kRef, 3);
  expect_verdict("no early exit when the bar is off",
                 bench::check_answer(no_bar, {&kRef, 2.0, kDeadline}),
                 bench::Verdict::kOk);
}

void planted_faults_are_caught() {
  bench::Answer wrong_label = answer_at(kHard, 3);
  wrong_label.label = 5;
  expect_verdict("wrong label", check(wrong_label, kHard), bench::Verdict::kWrongLabel);

  // One bit off in the float the model reported, and one bit off in the
  // double the service handed back.
  bench::Answer float_bit = answer_at(kHard, 3);
  float f = kHard[2].confidence;
  std::uint32_t fbits = 0;
  std::memcpy(&fbits, &f, sizeof f);
  fbits ^= 1u;
  std::memcpy(&f, &fbits, sizeof f);
  float_bit.confidence = f;
  expect_verdict("confidence one float bit off", check(float_bit, kHard),
                 bench::Verdict::kWrongConfidence);
  bench::Answer double_bit = answer_at(kHard, 3);
  std::uint64_t dbits = 0;
  std::memcpy(&dbits, &double_bit.confidence, sizeof dbits);
  dbits ^= 1u;
  std::memcpy(&double_bit.confidence, &dbits, sizeof dbits);
  expect_verdict("confidence one double bit off", check(double_bit, kHard),
                 bench::Verdict::kWrongConfidence);

  expect_verdict("stage run past the early exit", check(answer_at(kRef, 3), kRef),
                 bench::Verdict::kPastEarlyExit);

  bench::Answer too_deep = answer_at(kHard, 3);
  too_deep.stages_run = 4;
  expect_verdict("stage beyond the model's depth", check(too_deep, kHard),
                 bench::Verdict::kBeyondDepth);

  bench::Answer early_expiry = answer_at(kHard, 2);
  early_expiry.expired = true;
  early_expiry.latency_ms = kDeadline - 0.5;
  expect_verdict("expiry before the deadline", check(early_expiry, kHard),
                 bench::Verdict::kEarlyExpiry);

  bench::Answer expired_done = answer_at(kRef, 2);
  expired_done.expired = true;
  expired_done.latency_ms = kDeadline + 1.0;
  expect_verdict("expired although finished", check(expired_done, kRef),
                 bench::Verdict::kExpiredComplete);

  bench::Answer zero = answer_at(kHard, 1);
  zero.stages_run = 0;
  zero.label = 0;
  zero.confidence = 0.0;
  expect_verdict("answer with zero stages", check(zero, kHard), bench::Verdict::kNoStage);
  zero.expired = true;
  zero.latency_ms = kDeadline + 1.0;
  expect_verdict("expired answer with zero stages", check(zero, kHard),
                 bench::Verdict::kNoStage);

  bench::Answer drained = answer_at(kHard, 1);
  drained.draining = true;
  expect_verdict("drain rejection", check(drained, kHard), bench::Verdict::kDraining);

  bench::Answer stopped = answer_at(kHard, 2);
  expect_verdict("plain answer stopped short", check(stopped, kHard),
                 bench::Verdict::kIncomplete);
}

void missing_and_duplicate_answers_are_caught() {
  const std::vector<bench::Expect> expects(3, bench::Expect{&kHard, kBar, kDeadline});
  std::vector<bench::Answer> answers(3, answer_at(kHard, 3));
  for (std::size_t i = 0; i < answers.size(); ++i) answers[i].id = 10 + i;

  {
    bench::Tally tally;
    std::uint64_t floor = 1;
    expect_eq("clean call fails nothing", bench::check_call(answers, expects, floor, tally), 0);
    expect_eq("clean call checks every request", tally.checked, 3);
    expect_eq("floor moves past the ids seen", floor, 13);
    // The same ids in a later call under the same floor are duplicates.
    expect_eq("replayed ids are duplicates", bench::check_call(answers, expects, floor, tally),
              3);
    expect_eq("duplicate verdicts",
              tally.kinds[static_cast<std::size_t>(bench::Verdict::kDuplicate)], 3);
  }
  {
    bench::Tally tally;
    std::uint64_t floor = 0;  // ids restart every call, as task ids do
    std::vector<bench::Answer> tasks = answers;
    for (std::size_t i = 0; i < tasks.size(); ++i) tasks[i].id = i;
    expect_eq("task ids from 0", bench::check_call(tasks, expects, floor, tally), 0);
  }
  {
    bench::Tally tally;
    std::uint64_t floor = 1;
    std::vector<bench::Answer> dup = answers;
    dup[2].id = dup[0].id;
    expect_eq("duplicated answer", bench::check_call(dup, expects, floor, tally), 1);
    expect_eq("duplicate verdict",
              tally.kinds[static_cast<std::size_t>(bench::Verdict::kDuplicate)], 1);
  }
  {
    bench::Tally tally;
    std::uint64_t floor = 1;
    const std::vector<bench::Answer> short_call(answers.begin(), answers.begin() + 2);
    expect_eq("missing answer", bench::check_call(short_call, expects, floor, tally), 1);
    expect_eq("missing verdict",
              tally.kinds[static_cast<std::size_t>(bench::Verdict::kMissing)], 1);
    expect_eq("missing request still checked", tally.checked, 3);
  }
  {
    bench::Tally tally;
    std::uint64_t floor = 1;
    std::vector<bench::Answer> extra = answers;
    extra.push_back(answer_at(kHard, 3));
    extra.back().id = 99;
    expect_eq("extra answer fails no request",
              bench::check_call(extra, expects, floor, tally), 0);
    expect_eq("extra answer counted", tally.extra, 1);
  }
}

}  // namespace

int main() {
  valid_answers_pass();
  planted_faults_are_caught();
  missing_and_duplicate_answers_are_caught();
  if (g_failures != 0) {
    std::fprintf(stderr, "oracle_test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "oracle_test: all checks passed\n");
  return 0;
}
