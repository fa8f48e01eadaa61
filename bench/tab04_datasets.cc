/// Reproduces Table 4: the datasets used in the experiments. Partitions are
/// generated at a build scale factor, COF-encoded (dictionary + delta
/// encodings standing in for Parquet+ZSTD), measured, and projected to the
/// paper's SF1000 geometry.

#include <cstdio>

#include "common/string_util.h"
#include "datagen/dataset.h"
#include "datagen/tpch.h"
#include "datagen/tpcxbb.h"
#include "format/cof.h"
#include "platform/report.h"

using namespace skyrise;

namespace {

struct Geometry {
  double bytes_per_row = 0;
  int64_t rows_measured = 0;
};

Geometry Measure(const data::Schema& schema, const data::Chunk& chunk) {
  const std::string file = format::WriteCofFile(schema, chunk);
  Geometry g;
  g.rows_measured = chunk.rows();
  g.bytes_per_row =
      static_cast<double>(file.size()) / static_cast<double>(chunk.rows());
  return g;
}

}  // namespace

int main() {
  platform::PrintHeader("Table 4",
                        "Datasets (measured at build SF, projected to "
                        "SF1000 / the paper's partition counts)");
  datagen::TpchConfig tpch;
  tpch.scale_factor = 0.01;
  datagen::TpcxBbConfig bb;
  bb.scale_factor = 0.05;

  platform::TablePrinter table({"table", "projected size [GiB]",
                                "partitions", "partition size [MiB]",
                                "paper size [GiB]", "paper part [MiB]"});

  {
    auto g = Measure(datagen::LineitemSchema(),
                     datagen::GenerateLineitemPartition(tpch, 0, 1));
    const double rows_sf1000 = 6.0e9;
    const double total_gib = g.bytes_per_row * rows_sf1000 / kGiB;
    table.AddRow({"H-Lineitem", StrFormat("%.1f", total_gib), "996",
                  StrFormat("%.1f", total_gib * 1024 / 996), "177.4",
                  "182.4"});
  }
  {
    auto g = Measure(datagen::OrdersSchema(),
                     datagen::GenerateOrdersPartition(tpch, 0, 1));
    const double rows_sf1000 = 1.5e9;
    const double total_gib = g.bytes_per_row * rows_sf1000 / kGiB;
    table.AddRow({"H-Orders", StrFormat("%.1f", total_gib), "249",
                  StrFormat("%.1f", total_gib * 1024 / 249), "44.9",
                  "176.1"});
  }
  {
    auto clicks = datagen::GenerateClickstreamsPartition(bb, 0, 1);
    auto g = Measure(datagen::ClickstreamsSchema(), clicks);
    // Scale clicks to SF1000 row counts.
    const double rows_sf1000 =
        static_cast<double>(clicks.rows()) * 1000.0 / bb.scale_factor / 1000.0 *
        (1000.0 / (1000.0 * bb.scale_factor)) * bb.scale_factor * 1000.0;
    (void)rows_sf1000;
    const double rows = static_cast<double>(clicks.rows()) /
                        bb.scale_factor * 1000.0;
    const double total_gib = g.bytes_per_row * rows / kGiB;
    table.AddRow({"BB-Clickstreams", StrFormat("%.1f", total_gib), "1000",
                  StrFormat("%.1f", total_gib * 1024 / 1000), "94.9",
                  "92.7"});
  }
  {
    datagen::TpcxBbConfig bb1000 = bb;
    bb1000.scale_factor = 1.0;  // Item is small; generate directly.
    auto item = datagen::GenerateItemTable(bb1000);
    auto g = Measure(datagen::ItemSchema(), item);
    const double total_gib =
        g.bytes_per_row * static_cast<double>(item.rows()) * 1000.0 / kGiB;
    table.AddRow({"BB-Item", StrFormat("%.2f", total_gib), "1",
                  StrFormat("%.1f", total_gib * 1024), "0.08", "75.8"});
  }
  table.Print();
  std::printf(
      "\nNotes: COF (dictionary + delta varint) compresses the TPC string\n"
      "domains similarly to Parquet+ZSTD on flag/mode columns but does not\n"
      "compress numeric payload as aggressively; projected sizes land in\n"
      "the same order of magnitude as the paper's. Standard generators,\n"
      "no partitioning or sorting on any specific keys (Section 4.5).\n");
  return 0;
}
