// Property tests for the label combiner (util/hash.hpp).
//
// The relabeling function must be (a) commutative over incident edges —
// device pins are visited in arbitrary order, so the edge sum must not
// depend on it — and (b) sensitive to each edge's pin equivalence class:
// the gate pin of a MOSFET must contribute differently from a source/drain
// pin even when the neighbor labels collude. These tests pin both
// properties down over random pin orders and adversarial label pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace subg {
namespace {

struct Edge {
  Label coefficient;
  Label neighbor;
};

Label sum_contributions(const std::vector<Edge>& edges) {
  Label sum = 0;
  for (const Edge& e : edges) {
    sum += edge_contribution(e.coefficient, e.neighbor);
  }
  return sum;
}

TEST(HashProperty, RelabelIsInvariantUnderPinPermutation) {
  SplitMix64 rng(0xC0FFEE);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.below(12);
    std::vector<Edge> edges(n);
    for (Edge& e : edges) {
      // Realistic coefficients: per-(type, class) values.
      e.coefficient =
          class_coefficient(rng(), static_cast<std::uint32_t>(rng.below(4)));
      e.neighbor = rng();
    }
    const Label old_label = rng();
    const Label reference = relabel(old_label, sum_contributions(edges));

    // Fisher-Yates with the test rng: every order must give the same label.
    for (int shuffle = 0; shuffle < 8; ++shuffle) {
      for (std::size_t i = edges.size(); i > 1; --i) {
        std::swap(edges[i - 1], edges[rng.below(i)]);
      }
      EXPECT_EQ(relabel(old_label, sum_contributions(edges)), reference);
    }
  }
}

TEST(HashProperty, SameClassNeighborSwapIsInvariant) {
  // Two pins of the SAME equivalence class (e.g. a MOSFET's source and
  // drain) share a coefficient, so exchanging their neighbors' labels is a
  // pure permutation and must not change the result.
  SplitMix64 rng(0xBEEF);
  for (int trial = 0; trial < 100; ++trial) {
    const Label coeff = class_coefficient(rng(), 0);
    const Label la = rng(), lb = rng();
    const Label gate = edge_contribution(class_coefficient(rng(), 1),
                                         rng());
    EXPECT_EQ(edge_contribution(coeff, la) + edge_contribution(coeff, lb) + gate,
              edge_contribution(coeff, lb) + edge_contribution(coeff, la) + gate);
  }
}

TEST(HashProperty, CrossClassNeighborSwapIsDetected) {
  // Exchanging the neighbors of two pins in DIFFERENT classes (wiring the
  // gate where the source was) must change the edge sum: that is the whole
  // point of class coefficients.
  SplitMix64 rng(0xDEAD);
  for (int trial = 0; trial < 100; ++trial) {
    const Label type = rng();
    const Label c_sd = class_coefficient(type, 0);    // source/drain class
    const Label c_gate = class_coefficient(type, 1);  // gate class
    const Label la = rng(), lb = rng();
    if (la == lb) continue;
    EXPECT_NE(edge_contribution(c_sd, la) + edge_contribution(c_gate, lb),
              edge_contribution(c_sd, lb) + edge_contribution(c_gate, la));
  }
}

TEST(HashProperty, CrossClassXorDifferentialDoesNotCollide) {
  // Regression: pairing coefficient and neighbor with a bare XOR before
  // mixing made contributions from two different classes equal whenever
  // neighbor2 == neighbor1 ^ (coeff1 ^ coeff2) — a structured collision
  // needing no 64-bit luck. The combiner must resist exactly that
  // differential.
  SplitMix64 rng(0xF00D);
  for (int trial = 0; trial < 200; ++trial) {
    const Label type = rng();
    const Label c1 = class_coefficient(type, 0);
    const Label c2 = class_coefficient(type, 1);
    const Label l1 = rng();
    const Label l2 = l1 ^ (c1 ^ c2);
    EXPECT_NE(edge_contribution(c1, l1), edge_contribution(c2, l2));
    // And the additive differential, for good measure.
    const Label l3 = l1 + (c1 - c2);
    EXPECT_NE(edge_contribution(c1, l1), edge_contribution(c2, l3));
  }
}

TEST(HashProperty, ClassCoefficientsDistinguishClassesAndTypes) {
  SplitMix64 rng(0xCAFE);
  for (int trial = 0; trial < 100; ++trial) {
    const Label ta = rng(), tb = rng();
    EXPECT_NE(class_coefficient(ta, 0), class_coefficient(ta, 1));
    if (ta != tb) {
      EXPECT_NE(class_coefficient(ta, 0), class_coefficient(tb, 0));
    }
  }
}

TEST(HashProperty, HashCombineIsOrderDependent) {
  // hash_combine is for tuples (ordered), unlike the edge sum; it must NOT
  // be commutative or degenerate on equal halves.
  SplitMix64 rng(0x1234);
  for (int trial = 0; trial < 100; ++trial) {
    const Label a = rng(), b = rng();
    if (a == b) continue;
    EXPECT_NE(hash_combine(a, b), hash_combine(b, a));
  }
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(HashProperty, ReservedNoLabelIsNeverProduced) {
  SplitMix64 rng(0x5678);
  for (int trial = 0; trial < 1000; ++trial) {
    EXPECT_NE(relabel(rng(), rng()), kNoLabel);
    EXPECT_NE(hash_combine(rng(), rng()), kNoLabel);
    EXPECT_NE(degree_label(rng.below(64)), kNoLabel);
  }
  EXPECT_NE(hash_string(""), kNoLabel);
  EXPECT_NE(hash_string("vdd"), kNoLabel);
}

}  // namespace
}  // namespace subg
