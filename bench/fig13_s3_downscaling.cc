/// Reproduces Fig. 13: S3 scaling down from five prefix partitions to one
/// under hourly and daily measurement patterns. Two separately warmed
/// buckets are probed with short bursts of ~30K offered IOPS; the highest
/// observed IOPS per interval indicates the number of surviving partitions.

#include <cstdio>

#include "common/string_util.h"

#include "platform/report.h"
#include "platform/storage_io.h"
#include "platform/testbed.h"

using namespace skyrise;

namespace {

double Probe(platform::Testbed* bed, storage::ObjectStore* bucket) {
  // Three short repetitions of the largest-scale configuration; take the
  // highest observed IOPS.
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    platform::StorageIoConfig config;
    config.clients = 32;             // ~1K slots: offered load well above
    config.threads_per_client = 32;  // five partitions' capacity.
    config.request_bytes = kKiB;
    config.duration = Seconds(3);
    config.object_count = 2048;
    config.use_fabric = false;
    auto result =
        platform::RunStorageIo(&bed->env, &bed->fabric_driver, bucket, config);
    best = std::max(best, result.SuccessIops());
    bed->env.RunUntil(bed->env.now() + Seconds(20));
  }
  return best;
}

void RunPattern(const char* label, SimDuration interval, SimDuration horizon) {
  platform::Testbed bed(1313);
  auto options = storage::ObjectStore::StandardOptions();
  options.read_burst_tokens = 2000;  // Modest burst: probes read capacity.
  storage::ObjectStore bucket(&bed.env, options, 3300);
  bucket.SetPartitionCount(5);  // Warmed by the Fig. 11 experiment.

  std::printf("\n%s measurement pattern:\n", label);
  platform::TablePrinter table(
      {"elapsed", "peak probe IOPS", "inferred partitions"});
  for (SimTime t = 0; t <= horizon; t += interval) {
    bed.env.RunUntil(t);
    const double iops = Probe(&bed, &bucket);
    const int inferred =
        std::max(1, static_cast<int>(iops / 5500.0 + 0.35));
    table.AddRow({FormatDuration(t), StrFormat("%.0f", iops),
                  StrFormat("%d (actual %d)", inferred,
                            bucket.partition_count())});
  }
  table.Print();
}

}  // namespace

int main() {
  platform::PrintHeader("Figure 13",
                        "S3 downscaling from five to one prefix partitions");
  RunPattern("Daily", Hours(24), Hours(144));
  RunPattern("Hourly (every 8h shown)", Hours(8), Hours(136));
  std::printf(
      "\nShape (paper): after a full idle day all five partitions remain;\n"
      "two of the five stay available for roughly three more days before\n"
      "IOPS returns to a single partition's level — the full downscaling\n"
      "takes four to five days under both probe frequencies. IOPS scaling\n"
      "is therefore a relevant optimization even for hourly/daily\n"
      "workloads.\n");
  return 0;
}
