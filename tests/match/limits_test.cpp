// Resource-limit and failure-injection behaviour of the matcher: budget
// exhaustion must degrade to "no match" without crashing or corrupting
// later searches, and every cut-short sweep must say so in its RunStatus.
#include <gtest/gtest.h>

#include <chrono>

#include "cells/cells.hpp"
#include "extract/extract.hpp"
#include "gen/generators.hpp"
#include "match/matcher.hpp"
#include "test_circuits.hpp"

namespace subg {
namespace {

using test::Cmos3;

TEST(Limits, ZeroGuessDepthRejectsSymmetricPatterns) {
  // The parallel pair needs one guess; with the guess budget at zero the
  // candidate is rejected cleanly.
  Cmos3 c;
  Netlist pattern = c.netlist("pair");
  NetId n1 = pattern.add_net("n1"), n2 = pattern.add_net("n2"),
        g = pattern.add_net("g");
  pattern.add_device(c.nmos, {n1, g, n2});
  pattern.add_device(c.nmos, {n1, g, n2});
  for (NetId p : {n1, n2, g}) pattern.mark_port(p);

  Netlist host = c.netlist();
  NetId h1 = host.add_net("h1"), h2 = host.add_net("h2"), hg = host.add_net("hg");
  host.add_device(c.nmos, {h1, hg, h2});
  host.add_device(c.nmos, {h1, hg, h2});

  MatchOptions opts;
  opts.max_guess_depth = 0;
  SubgraphMatcher matcher(pattern, host, opts);
  EXPECT_EQ(matcher.find_all().count(), 0u);

  // Default budget finds it.
  SubgraphMatcher ok(pattern, host);
  EXPECT_EQ(ok.find_all().count(), 1u);
}

TEST(Limits, TinyPassBudgetRejectsCleanly) {
  // The cap's subject is the relabel search, so the forced-pin walk (which
  // would settle every fulladder candidate without a pass) is off.
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern("fulladder");
  gen::Generated host = gen::ripple_carry_adder(2);
  MatchOptions opts;
  opts.max_phase2_passes_per_candidate = 1;
  opts.phase2_filter = Phase2Filter::kOff;
  SubgraphMatcher matcher(pattern, host.netlist, opts);
  EXPECT_EQ(matcher.find_all().count(), 0u);
}

TEST(Limits, WalkIsNotChargedToThePassCap) {
  // The forced-pin walk settles nand2 candidates from their pins alone, so
  // a one-pass cap that stops every relabel search leaves its answer whole.
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern("nand2");
  gen::Generated host = gen::logic_soup(200, 11);

  SubgraphMatcher uncapped(pattern, host.netlist);
  const MatchReport full = uncapped.find_all();
  ASSERT_GT(full.count(), 0u);

  MatchOptions capped;
  capped.max_phase2_passes_per_candidate = 1;
  SubgraphMatcher walked(pattern, host.netlist, capped);
  const MatchReport walk = walked.find_all();
  EXPECT_TRUE(walk.status.complete());
  EXPECT_EQ(walk.phase2.passes, 0u);
  ASSERT_EQ(walk.count(), full.count());
  for (std::size_t i = 0; i < walk.count(); ++i) {
    EXPECT_EQ(walk.instances[i].device_image, full.instances[i].device_image);
    EXPECT_EQ(walk.instances[i].net_image, full.instances[i].net_image);
  }

  capped.phase2_filter = Phase2Filter::kOff;
  SubgraphMatcher relabeled(pattern, host.netlist, capped);
  const MatchReport none = relabeled.find_all();
  EXPECT_EQ(none.count(), 0u);
  EXPECT_EQ(none.status.outcome, RunOutcome::kTruncated);
}

TEST(Limits, PhaseOneRoundCapRespected) {
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern("fulladder");
  gen::Generated host = gen::ripple_carry_adder(4);
  MatchOptions opts;
  opts.phase1.max_rounds = 1;
  SubgraphMatcher matcher(pattern, host.netlist, opts);
  MatchReport r = matcher.find_all();
  // One loop iteration = a net round + a device round.
  EXPECT_LE(r.phase1.rounds, 2u);
  // A weaker CV, but Phase II still verifies correctly.
  EXPECT_EQ(r.count(), 4u);
}

TEST(Limits, MatcherReusableAfterBudgetFailure) {
  // Same matcher options object used for a failing then a succeeding run.
  cells::CellLibrary lib;
  gen::Generated host = gen::ripple_carry_adder(2);
  Netlist pattern = lib.pattern("fulladder");
  MatchOptions tight;
  tight.max_phase2_passes_per_candidate = 1;
  tight.phase2_filter = Phase2Filter::kOff;  // the cap binds the relabel search
  SubgraphMatcher bad(pattern, host.netlist, tight);
  EXPECT_EQ(bad.find_all().count(), 0u);
  SubgraphMatcher good(pattern, host.netlist);
  EXPECT_EQ(good.find_all().count(), 2u);
}

TEST(Limits, TruncationIsReportedNotSilent) {
  // The zero-guess-depth rejection from above must be labeled: a capped
  // sweep is kTruncated with abandoned guesses on the books.
  Cmos3 c;
  Netlist pattern = c.parallel_bank(2, "pair", true);
  Netlist host = c.parallel_bank(2, "host", false);

  MatchOptions opts;
  opts.max_guess_depth = 0;
  SubgraphMatcher matcher(pattern, host, opts);
  MatchReport r = matcher.find_all();
  EXPECT_EQ(r.count(), 0u);
  EXPECT_EQ(r.status.outcome, RunOutcome::kTruncated);
  EXPECT_FALSE(r.status.reason.empty());
  EXPECT_GT(r.status.guesses_abandoned, 0u);

  // An ungoverned run on the same inputs is complete.
  SubgraphMatcher ok(pattern, host);
  MatchReport full = ok.find_all();
  EXPECT_EQ(full.status.outcome, RunOutcome::kComplete);
  EXPECT_TRUE(full.status.reason.empty());
}

TEST(Limits, DeadlineExpiryReturnsPromptlyWithOutcome) {
  // Exhaustive enumeration over a maximally symmetric bank explores a
  // factorial branch space — unbounded, it would run for hours. With a
  // 100 ms deadline it must come back within a small multiple of that and
  // say the sweep was cut short.
  Cmos3 c;
  Netlist pattern = c.parallel_bank(6, "bank6", true);
  Netlist host = c.parallel_bank(40, "host", false);

  MatchOptions opts;
  opts.exhaustive = true;
  const auto start = std::chrono::steady_clock::now();
  opts.budget = Budget::after(0.1);
  SubgraphMatcher matcher(pattern, host, opts);
  MatchReport r = matcher.find_all();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_EQ(r.status.outcome, RunOutcome::kDeadlineExceeded);
  EXPECT_FALSE(r.status.reason.empty());
  // ~2x the deadline, with scheduler slack so the bound is not flaky.
  EXPECT_LT(elapsed, 0.5);
  // Whatever was reported before the cutoff is individually verified.
  for (const SubcircuitInstance& inst : r.instances) {
    EXPECT_EQ(inst.device_image.size(), pattern.device_count());
  }
}

TEST(Limits, PreCancelledTokenStopsBeforeSearching) {
  Cmos3 c;
  Netlist pattern = c.parallel_bank(6, "bank6", true);
  Netlist host = c.parallel_bank(40, "host", false);

  CancelToken token;
  token.request();
  MatchOptions opts;
  opts.exhaustive = true;
  opts.budget.set_cancel_token(&token);
  SubgraphMatcher matcher(pattern, host, opts);
  MatchReport r = matcher.find_all();
  EXPECT_EQ(r.status.outcome, RunOutcome::kCancelled);
  EXPECT_EQ(r.count(), 0u);

  // Resetting the token restores normal behaviour for the next run with
  // the same options — the budget holds no stale state.
  token.reset();
  Netlist small_host = c.parallel_bank(6, "host6", false);
  SubgraphMatcher again(pattern, small_host, opts);
  MatchReport ok = again.find_all();
  EXPECT_EQ(ok.status.outcome, RunOutcome::kComplete);
  EXPECT_EQ(ok.count(), 1u);
}

TEST(Limits, DeadlineGovernsExtractSweep) {
  // An already-expired budget: the sweep gives up before the first cell
  // and reports every cell as skipped rather than returning a silently
  // empty extraction.
  cells::CellLibrary lib;
  gen::Generated host = gen::ripple_carry_adder(2);
  std::vector<extract::LibraryCell> cells = {
      {"xor2", lib.pattern("xor2")},
      {"nand2", lib.pattern("nand2")},
  };
  extract::ExtractOptions opts;
  opts.match.budget.set_deadline(Budget::Clock::now());
  extract::ExtractResult result =
      extract::extract_gates(host.netlist, cells, opts);
  EXPECT_EQ(result.report.status.outcome, RunOutcome::kDeadlineExceeded);
  EXPECT_EQ(result.report.cells_skipped, 2u);
  EXPECT_EQ(result.report.devices_before, result.report.devices_after);
}

TEST(Limits, FindAllIsRepeatableOnOneMatcher) {
  cells::CellLibrary lib;
  gen::Generated host = gen::ripple_carry_adder(3);
  Netlist pattern = lib.pattern("xor2");
  SubgraphMatcher matcher(pattern, host.netlist);
  MatchReport a = matcher.find_all();
  MatchReport b = matcher.find_all();
  EXPECT_EQ(a.count(), b.count());
  for (std::size_t i = 0; i < a.count(); ++i) {
    EXPECT_EQ(a.instances[i].device_image, b.instances[i].device_image);
  }
}

}  // namespace
}  // namespace subg
