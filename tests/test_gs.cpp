// Tests for the gather-scatter benchmark library: key-pattern generators,
// host kernels (correctness of the actual computation, not just timing),
// logical-byte accounting, and the device-model evaluation paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "gs/gather_scatter.hpp"
#include "sort/sorters.hpp"

using namespace vpic;
using pk::index_t;

TEST(GsKeys, ContiguousIsIota) {
  auto k = gs::make_keys(gs::Pattern::Contiguous, 100, 100);
  for (index_t i = 0; i < 100; ++i) EXPECT_EQ(k(i), i);
}

TEST(GsKeys, RepeatedClusters) {
  auto k = gs::make_keys(gs::Pattern::Repeated, 1000, 10);
  // 10 unique keys, each repeated 100 times, clustered.
  for (index_t i = 0; i < 1000; ++i) EXPECT_EQ(k(i), i / 100);
}

TEST(GsKeys, RepeatedCoversAllKeys) {
  auto k = gs::make_keys(gs::Pattern::Repeated, 997, 13);  // non-divisible
  std::uint32_t max_seen = 0;
  for (index_t i = 0; i < 997; ++i) {
    EXPECT_LT(k(i), 13u);
    max_seen = std::max(max_seen, k(i));
  }
  EXPECT_EQ(max_seen, 12u);
}

TEST(GsKeys, TableSizes) {
  EXPECT_EQ(gs::table_size(gs::Pattern::Contiguous, 64), 64);
  EXPECT_EQ(gs::table_size(gs::Pattern::Repeated, 64), 64);
  EXPECT_EQ(gs::table_size(gs::Pattern::Stencil5, 64), 65);
}

TEST(GsKeys, LogicalBytesAccounting) {
  EXPECT_EQ(gs::logical_bytes(gs::Pattern::Repeated, 10), 10u * 36);
  EXPECT_EQ(gs::logical_bytes(gs::Pattern::Stencil5, 10), 10u * 68);
}

TEST(GsHost, GatherValuesCorrect) {
  const index_t n = 1000;
  auto keys = gs::make_keys(gs::Pattern::Repeated, n, 10);
  pk::View<double, 1> data("d", 10), out("o", n);
  for (index_t i = 0; i < 10; ++i) data(i) = 100.0 + static_cast<double>(i);
  const auto r = gs::run_gather(keys, data, out);
  for (index_t i = 0; i < n; ++i)
    EXPECT_EQ(out(i), 100.0 + static_cast<double>(keys(i)));
  EXPECT_GT(r.gb_per_s, 0.0);
}

TEST(GsHost, ScatterAddAccumulates) {
  const index_t n = 640;
  auto keys = gs::make_keys(gs::Pattern::Repeated, n, 4);
  pk::View<double, 1> data("d", 4), src("s", n);
  pk::deep_copy(src, 1.0);
  gs::run_scatter_add(keys, data, src);
  // 4 keys x 160 repeats, each +1.
  for (index_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(data(i), 160.0);
}

TEST(GsHost, GatherScatterCombined) {
  const index_t n = 200;
  auto keys = gs::make_keys(gs::Pattern::Repeated, n, 2);
  pk::View<double, 1> data("d", 2), out("o", n);
  data(0) = 5.0;
  data(1) = 7.0;
  gs::run_gather_scatter(keys, data, out);
  // Each of the 2 keys receives +1 per access (100 each).
  EXPECT_DOUBLE_EQ(data(0), 105.0);
  EXPECT_DOUBLE_EQ(data(1), 107.0);
}

TEST(GsHost, Stencil5SumsNeighborsAndScatters) {
  const index_t n = 8;
  pk::View<std::uint32_t, 1> keys("k", n);
  for (index_t i = 0; i < n; ++i) keys(i) = 4;  // all at center 4
  pk::View<double, 1> data("d", 16), out("o", n);
  for (index_t i = 0; i < 16; ++i) data(i) = static_cast<double>(i);
  const index_t stride = 3;
  const double pristine = 4.0 + 3.0 + 5.0 + 1.0 + 7.0;  // c, ±1, ±stride
  gs::run_stencil5(keys, data, out, stride);
  // Which element gathers before which scatter lands depends on the
  // schedule, so assert what holds under any order. Only the center is
  // scattered into: its neighbors stay pristine.
  for (const index_t nb : {1, 3, 5, 7})
    EXPECT_EQ(data(nb), static_cast<double>(nb)) << "neighbor " << nb;
  // The gather that precedes every scatter sees the pristine table, and
  // scatters only grow the center, so the smallest sum is the pristine one.
  double lo = out(0), sum = 0;
  for (index_t i = 0; i < n; ++i) {
    lo = std::min(lo, out(i));
    sum += out(i);
  }
  EXPECT_EQ(lo, pristine);
  // Every gather's quarter lands in the center exactly once. All values
  // are dyadic rationals far below 2^53, so both sides are exact.
  EXPECT_EQ(data(4), 4.0 + 0.25 * sum);
}

namespace {

// The model tests replay at reduced n; scale the device LLC by n/1e9 so
// working-set:cache ratios match the paper's billion-element run (the
// same "cache-scaled replay" the fig5/fig6 harnesses use).
gpusim::DeviceSpec scaled_device(const char* name, index_t n) {
  auto d = gpusim::device(name);
  d.llc_mb = std::max(d.llc_mb * static_cast<double>(n) / 1e9,
                      16.0 * d.line_bytes / 1e6);
  return d;
}

}  // namespace

TEST(GsModel, SortingOrdersChangeModeledBandwidth) {
  const index_t n = 1 << 18;
  const index_t unique = n / 100;  // 2621 > the atomic window
  const auto dev = scaled_device("A100", n);
  auto run = [&](sort::SortOrder order) {
    auto keys = gs::make_keys(gs::Pattern::Repeated, n, unique);
    pk::View<std::uint32_t, 1> payload("p", n);
    sort::sort_pairs(order, keys, payload, 2048u);
    return gs::model_gather_scatter(dev, keys, unique).bw_gbs;
  };
  const double standard = run(sort::SortOrder::Standard);
  const double strided = run(sort::SortOrder::Strided);
  EXPECT_GT(strided, 3.0 * standard)
      << "standard sort must collapse under atomic contention";
}

TEST(GsModel, ContiguousMatchesStream) {
  const index_t n = 1 << 18;
  auto keys = gs::make_keys(gs::Pattern::Contiguous, n, n);
  const auto dev = scaled_device("V100", n);
  const auto t = gs::model_gather_scatter(dev, keys, n);
  // Logical 36 B/elem vs modeled DRAM 36 B/elem: reported BW ~ STREAM.
  EXPECT_NEAR(t.bw_gbs, dev.dram_bw_gbs, 0.15 * dev.dram_bw_gbs);
}

TEST(GsModel, AmdPaysMoreForAtomics) {
  const index_t n = 1 << 16;
  const index_t unique = n / 100;
  auto keys = gs::make_keys(gs::Pattern::Repeated, n, unique);
  const auto nv = gs::model_gather_scatter(gpusim::device("A100"), keys,
                                           unique);
  const auto amd = gs::model_gather_scatter(gpusim::device("MI250"), keys,
                                            unique);
  // Same stream: AMD's fewer atomic lanes + higher atomic latency must
  // yield lower effective bandwidth despite higher STREAM.
  EXPECT_LT(amd.bw_gbs, nv.bw_gbs);
}

TEST(GsModel, StencilCountsFiveStreams) {
  const index_t n = 1 << 14;
  auto keys = gs::make_keys(gs::Pattern::Repeated, n, n / 100);
  const auto& dev = gpusim::device("H100");
  const auto st = gs::model_stencil5(dev, keys, n / 100, 8);
  const auto gs2 = gs::model_gather_scatter(dev, keys, n / 100);
  // The stencil moves more logical bytes per element.
  EXPECT_GT(static_cast<double>(gs::logical_bytes(gs::Pattern::Stencil5, n)),
            static_cast<double>(gs::logical_bytes(gs::Pattern::Repeated, n)));
  EXPECT_GT(st.seconds, 0.0);
  EXPECT_GT(gs2.seconds, 0.0);
}
