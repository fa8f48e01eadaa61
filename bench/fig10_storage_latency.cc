/// Reproduces Fig. 10: latency distributions of each serverless storage
/// service for 1 KiB read and write requests, issued by 10 clients through
/// the synchronous APIs (one outstanding request per client). S3 Standard is
/// measured over 1M reads to expose the multi-second tail; the other
/// configurations use 200K requests.

#include <cstdio>
#include <vector>

#include "common/string_util.h"

#include "platform/report.h"
#include "platform/storage_io.h"
#include "platform/testbed.h"

using namespace skyrise;

namespace {

Histogram Measure(const storage::ObjectStore::Options& options, bool write,
                  int64_t target_requests, uint64_t seed) {
  platform::Testbed bed(seed);
  storage::ObjectStore service(&bed.env, options, 2500 + seed % 89);
  platform::StorageIoConfig config;
  config.clients = 10;
  config.threads_per_client = 1;  // Synchronous API.
  config.request_bytes = kKiB;
  config.write = write;
  config.object_count = 1024;
  config.use_fabric = false;
  // Duration long enough for the request budget given the median latency.
  const double median_ms =
      write ? options.write_latency.median_ms : options.read_latency.median_ms;
  config.duration = static_cast<SimDuration>(
      static_cast<double>(target_requests) / 10.0 * (median_ms * 1.35) *
      kMillisecond);
  auto result =
      platform::RunStorageIo(&bed.env, &bed.fabric_driver, &service, config);
  return result.latency_ms;
}

}  // namespace

int main() {
  platform::PrintHeader("Figure 10",
                        "Storage request latency distributions (1 KiB)");
  platform::TablePrinter table({"system", "op", "n", "p50 [ms]", "p95 [ms]",
                                "p99 [ms]", "max [ms]"});
  struct Config {
    const char* label;
    storage::ObjectStore::Options options;
    int64_t reads;
  };
  const Config configs[] = {
      {"S3 Standard", storage::ObjectStore::StandardOptions(), 1000000},
      {"S3 Express", storage::ObjectStore::ExpressOptions(), 200000},
      {"DynamoDB", storage::ObjectStore::DynamoDbOptions(), 200000},
      {"EFS", storage::ObjectStore::EfsOptions(), 200000},
  };
  uint64_t seed = 40;
  // One histogram per table row: each system's read, then its write.
  std::vector<Histogram> rows;
  for (const auto& config : configs) {
    for (bool write : {false, true}) {
      const int64_t n = write ? 200000 : config.reads;
      Histogram h = Measure(config.options, write, n, seed += 5);
      table.AddRow({config.label, write ? "write" : "read",
                    StrFormat("%lld", static_cast<long long>(h.count())),
                    StrFormat("%.1f", h.Percentile(50)),
                    StrFormat("%.1f", h.Percentile(95)),
                    StrFormat("%.1f", h.Percentile(99)),
                    StrFormat("%.0f", h.max())});
      rows.push_back(std::move(h));
    }
  }
  table.Print();
  const Histogram& s3_read = rows[0];
  const Histogram& s3_write = rows[1];
  const Histogram& express_read = rows[2];
  const Histogram& dynamo_read = rows[4];
  const Histogram& efs_read = rows[6];
  const Histogram& efs_write = rows[7];

  std::printf("\nPaper-reported reference points:\n");
  platform::PrintComparison(
      "S3 Standard read p50 / p95 [ms]", "27 / 75",
      StrFormat("%.1f / %.1f", s3_read.Percentile(50),
                s3_read.Percentile(95)));
  platform::PrintComparison("S3 Standard write p50 [ms]", "40",
                            StrFormat("%.1f", s3_write.Percentile(50)));
  platform::PrintComparison(
      "S3 Standard slowest read (1M requests)", "just over 10 s (374x median)",
      StrFormat("%.1f s (%.0fx median)", s3_read.max() / 1000.0,
                s3_read.max() / s3_read.Percentile(50)));
  platform::PrintComparison(
      "S3 Express read p50 ~ p95 [ms]", "~5",
      StrFormat("%.1f ~ %.1f", express_read.Percentile(50),
                express_read.Percentile(95)));
  platform::PrintComparison(
      "DynamoDB vs S3 Express", "slightly lower, more variable",
      StrFormat("read p50 %.1f vs %.1f ms, p99 %.1f vs %.1f ms",
                dynamo_read.Percentile(50), express_read.Percentile(50),
                dynamo_read.Percentile(99), express_read.Percentile(99)));
  platform::PrintComparison(
      "EFS writes vs reads", "2-3x slower",
      StrFormat("%.1fx slower (p50)",
                efs_write.Percentile(50) / efs_read.Percentile(50)));
  return 0;
}
