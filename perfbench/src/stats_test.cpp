// Self-test of the percentile code against hand-computed sets.  Exits 1 and
// names the failing case on any mismatch.
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(const char* what, double got, double want) {
  if (got != want) {
    std::printf("FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

perfbench::Samples of(const std::vector<double>& v) {
  perfbench::Samples s;
  for (const double x : v) s.add(x);
  return s;
}

}  // namespace

int main() {
  using perfbench::Samples;

  // 1..10 shuffled: nearest rank k = ceil(q * 10).
  Samples ten = of({7, 3, 10, 1, 9, 2, 8, 5, 6, 4});
  expect("p0 of 1..10", ten.percentile(0), 1);
  expect("p10 of 1..10", ten.percentile(100), 1);
  expect("p11 of 1..10", ten.percentile(110), 2);
  expect("p50 of 1..10", ten.percentile(500), 5);
  expect("p51 of 1..10", ten.percentile(510), 6);
  expect("p90 of 1..10", ten.percentile(900), 9);
  expect("p99 of 1..10", ten.percentile(990), 10);
  expect("p100 of 1..10", ten.percentile(1000), 10);
  expect("beyond p90 of 1..10", static_cast<double>(ten.beyond(900)), 1);

  // 1..1000: p99 is the 990th value, 10 values lie beyond it.
  Samples thousand;
  for (int i = 1000; i >= 1; --i) thousand.add(i);
  expect("p99 of 1..1000", thousand.percentile(990), 990);
  expect("p99.9 of 1..1000", thousand.percentile(999), 999);
  expect("beyond p99 of 1..1000", static_cast<double>(thousand.beyond(990)),
         10);
  expect("mean of 1..1000", thousand.mean(), 500.5);

  // Ranks that floating point would round wrongly: 0.29 * 100 = 28.999...
  Samples hundred;
  for (int i = 1; i <= 100; ++i) hundred.add(i);
  expect("p29 of 1..100", hundred.percentile(290), 29);
  expect("p57 of 1..100", hundred.percentile(570), 57);

  // Small and degenerate sets.
  expect("p50 of {}", of({}).percentile(500), 0);
  expect("p99 of {4}", of({4}).percentile(990), 4);
  expect("p50 of {2, 1}", of({2, 1}).percentile(500), 1);
  expect("p50 of {3, 1, 2}", of({3, 1, 2}).percentile(500), 2);
  expect("median of {5, 1, 4, 2, 3}", perfbench::median({5, 1, 4, 2, 3}), 3);

  // Adding after a percentile re-sorts.
  Samples grow = of({1, 2, 3});
  expect("p100 before add", grow.percentile(1000), 3);
  grow.add(0.5);
  expect("p0 after add", grow.percentile(0), 0.5);

  // Reserved storage holds no samples until they are added.
  Samples reserved;
  reserved.reserve_resident(16);
  expect("size after reserve", static_cast<double>(reserved.size()), 0);
  reserved.add(2);
  reserved.add(1);
  expect("p50 after reserve", reserved.percentile(500), 1);

  if (failures == 0) std::printf("stats self-test: all cases pass\n");
  return failures == 0 ? 0 : 1;
}
