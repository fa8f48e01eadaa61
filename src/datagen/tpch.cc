#include "datagen/tpch.h"

#include <algorithm>
#include <cmath>

namespace skyrise::datagen {

using data::DataType;
using data::Field;
using data::Schema;

Schema LineitemSchema() {
  return Schema({
      {"l_orderkey", DataType::kInt64},
      {"l_partkey", DataType::kInt64},
      {"l_suppkey", DataType::kInt64},
      {"l_linenumber", DataType::kInt64},
      {"l_quantity", DataType::kDouble},
      {"l_extendedprice", DataType::kDouble},
      {"l_discount", DataType::kDouble},
      {"l_tax", DataType::kDouble},
      {"l_returnflag", DataType::kString},
      {"l_linestatus", DataType::kString},
      {"l_shipdate", DataType::kDate},
      {"l_commitdate", DataType::kDate},
      {"l_receiptdate", DataType::kDate},
      {"l_shipinstruct", DataType::kString},
      {"l_shipmode", DataType::kString},
  });
}

Schema OrdersSchema() {
  return Schema({
      {"o_orderkey", DataType::kInt64},
      {"o_custkey", DataType::kInt64},
      {"o_orderstatus", DataType::kString},
      {"o_totalprice", DataType::kDouble},
      {"o_orderdate", DataType::kDate},
      {"o_orderpriority", DataType::kString},
  });
}

namespace {

const char* kShipmodes[] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                            "TRUCK",   "MAIL", "FOB"};
const char* kShipinstruct[] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                               "TAKE BACK RETURN"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};

// Date range: 1992-01-01 .. 1998-12-01 (TPC-H order dates), shipped up to
// 122 days later.
const int32_t kMaxOrderDate = data::DaysSinceEpoch(1998, 8, 2);

struct OrderRange {
  int64_t first_order = 0;
  int64_t order_count = 0;
};

OrderRange PartitionOrders(const TpchConfig& config, int partition,
                           int partition_count) {
  const int64_t total =
      std::max<int64_t>(1, static_cast<int64_t>(kOrdersPerSf *
                                                config.scale_factor));
  OrderRange range;
  range.first_order = total * partition / partition_count;
  range.order_count =
      total * (partition + 1) / partition_count - range.first_order;
  return range;
}

/// Per-order deterministic RNG stream: identical values regardless of the
/// partitioning used to generate them.
Rng OrderRng(const TpchConfig& config, int64_t orderkey) {
  return Rng(config.seed).Fork(static_cast<uint64_t>(orderkey) + 1);
}

int LineCount(Rng* rng) { return 1 + static_cast<int>(rng->UniformInt(0, 6)); }

}  // namespace

data::Chunk GenerateLineitemPartition(const TpchConfig& config, int partition,
                                      int partition_count) {
  SKYRISE_CHECK(partition >= 0 && partition < partition_count);
  const OrderRange range = PartitionOrders(config, partition, partition_count);
  data::Chunk chunk = data::Chunk::Empty(LineitemSchema());
  auto& orderkey = chunk.column(0).ints();
  auto& partkey = chunk.column(1).ints();
  auto& suppkey = chunk.column(2).ints();
  auto& linenumber = chunk.column(3).ints();
  auto& quantity = chunk.column(4).doubles();
  auto& extendedprice = chunk.column(5).doubles();
  auto& discount = chunk.column(6).doubles();
  auto& tax = chunk.column(7).doubles();
  data::Column& returnflag = chunk.column(8);
  data::Column& linestatus = chunk.column(9);
  auto& shipdate = chunk.column(10).ints();
  auto& commitdate = chunk.column(11).ints();
  auto& receiptdate = chunk.column(12).ints();
  data::Column& shipinstruct = chunk.column(13);
  data::Column& shipmode = chunk.column(14);

  const int32_t cutoff = data::DaysSinceEpoch(1995, 6, 17);
  for (int64_t o = range.first_order; o < range.first_order + range.order_count;
       ++o) {
    Rng rng = OrderRng(config, o);
    const int32_t orderdate =
        static_cast<int32_t>(rng.UniformInt(0, kMaxOrderDate));
    const int lines = LineCount(&rng);
    for (int l = 0; l < lines; ++l) {
      orderkey.push_back(o);
      partkey.push_back(rng.UniformInt(1, 200000));
      suppkey.push_back(rng.UniformInt(1, 10000));
      linenumber.push_back(l + 1);
      const double qty = static_cast<double>(rng.UniformInt(1, 50));
      quantity.push_back(qty);
      const double unit_price = 900.0 + rng.NextDouble() * 100100.0 / 50.0;
      extendedprice.push_back(std::round(qty * unit_price * 100) / 100);
      discount.push_back(static_cast<double>(rng.UniformInt(0, 10)) / 100.0);
      tax.push_back(static_cast<double>(rng.UniformInt(0, 8)) / 100.0);
      const int32_t ship =
          orderdate + static_cast<int32_t>(rng.UniformInt(1, 121));
      const int32_t commit =
          orderdate + static_cast<int32_t>(rng.UniformInt(30, 90));
      const int32_t receipt =
          ship + static_cast<int32_t>(rng.UniformInt(1, 30));
      shipdate.push_back(ship);
      commitdate.push_back(commit);
      receiptdate.push_back(receipt);
      // Return flag: R/A for shipped-before-cutoff rows, N otherwise
      // (approximates the TPC-H returnability window).
      if (receipt <= cutoff) {
        returnflag.AppendString(rng.Bernoulli(0.5) ? "R" : "A");
      } else {
        returnflag.AppendString("N");
      }
      linestatus.AppendString(ship > cutoff ? "O" : "F");
      shipinstruct.AppendString(kShipinstruct[rng.UniformInt(0, 3)]);
      shipmode.AppendString(kShipmodes[rng.UniformInt(0, 6)]);
    }
  }
  return chunk;
}

data::Chunk GenerateOrdersPartition(const TpchConfig& config, int partition,
                                    int partition_count) {
  SKYRISE_CHECK(partition >= 0 && partition < partition_count);
  const OrderRange range = PartitionOrders(config, partition, partition_count);
  data::Chunk chunk = data::Chunk::Empty(OrdersSchema());
  auto& orderkey = chunk.column(0).ints();
  auto& custkey = chunk.column(1).ints();
  data::Column& orderstatus = chunk.column(2);
  auto& totalprice = chunk.column(3).doubles();
  auto& orderdate = chunk.column(4).ints();
  data::Column& priority = chunk.column(5);

  for (int64_t o = range.first_order; o < range.first_order + range.order_count;
       ++o) {
    // Same stream head as the lineitem generator: order date and line count
    // are the first draws, so the two tables agree on both.
    Rng rng = OrderRng(config, o);
    const int32_t date = static_cast<int32_t>(rng.UniformInt(0, kMaxOrderDate));
    const int lines = LineCount(&rng);
    double total = 0;
    for (int l = 0; l < lines; ++l) {
      const double qty = static_cast<double>(rng.UniformInt(1, 50));
      const double unit_price = 900.0 + rng.NextDouble() * 100100.0 / 50.0;
      total += qty * unit_price;
    }
    orderkey.push_back(o);
    custkey.push_back(rng.UniformInt(1, 150000));
    orderstatus.AppendString(rng.Bernoulli(0.5) ? "F" : "O");
    totalprice.push_back(std::round(total * 100) / 100);
    orderdate.push_back(date);
    priority.AppendString(kPriorities[rng.UniformInt(0, 4)]);
  }
  return chunk;
}

}  // namespace skyrise::datagen
