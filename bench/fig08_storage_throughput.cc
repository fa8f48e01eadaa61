/// Reproduces Fig. 8: aggregated read/write throughput of the serverless
/// storage services for 1-128 client VMs (c6gn.2xlarge, 32 I/O threads
/// each). S3 (Standard and Express) scales linearly to the generated load;
/// DynamoDB saturates at a single client; EFS converges to its per-
/// filesystem quotas.

#include <cstdio>

#include "common/string_util.h"

#include "platform/report.h"
#include "platform/storage_io.h"
#include "platform/testbed.h"

using namespace skyrise;

namespace {

double MeasureGiBps(storage::ObjectStore::Options service_options,
                    int clients, int64_t object_bytes, bool write,
                    uint64_t seed) {
  platform::Testbed bed(seed);
  storage::ObjectStore service(&bed.env, service_options, 2000 + seed % 97);
  platform::StorageIoConfig config;
  config.clients = clients;
  config.threads_per_client = 32;
  config.request_bytes = object_bytes;
  config.write = write;
  config.duration = Seconds(12);
  config.object_count = std::max(256, clients * 32);
  config.client_instance_type = "c6gn.2xlarge";
  auto result =
      platform::RunStorageIo(&bed.env, &bed.fabric_driver, &service, config);
  return result.ThroughputGiBps();
}

}  // namespace

int main() {
  platform::PrintHeader("Figure 8",
                        "Aggregated storage throughput vs client VM count");
  const std::vector<int> client_counts = {1, 4, 16, 64, 128};

  struct Service {
    const char* label;
    storage::ObjectStore::Options options;
    int64_t object_bytes;
  };
  const Service services[] = {
      {"S3 Standard", storage::ObjectStore::StandardOptions(), 64 * kMiB},
      {"S3 Express", storage::ObjectStore::ExpressOptions(), 64 * kMiB},
      {"DynamoDB", storage::ObjectStore::DynamoDbOptions(), 400 * kKiB},
      {"EFS", storage::ObjectStore::EfsOptions(), 4 * kMiB},
  };

  for (bool write : {false, true}) {
    std::printf("\n%s throughput [GiB/s]:\n", write ? "Write" : "Read");
    std::vector<std::string> headers{"service"};
    for (int c : client_counts) headers.push_back(StrFormat("%d VMs", c));
    platform::TablePrinter table(headers);
    uint64_t seed = write ? 9000 : 8000;
    for (const auto& service : services) {
      std::vector<std::string> row{service.label};
      for (int clients : client_counts) {
        row.push_back(StrFormat(
            "%.1f", MeasureGiBps(service.options, clients,
                                 service.object_bytes, write, seed += 7)));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }

  std::printf(
      "\nShape (paper): both S3 variants scale linearly up to the generated\n"
      "load (~250 GiB/s reads at 128 VMs; Standard writes trail Express).\n"
      "DynamoDB saturates at ~0.37 GiB/s reads / ~0.03 GiB/s writes from a\n"
      "single VM. EFS converges to its 20 / 5 GiB/s per-filesystem quotas\n"
      "by ~64 VMs. Reads: S3 costs 0.00064 c/GiB/s vs 6.55 (DynamoDB) and\n"
      "3.00 (EFS): S3 is by far the most cost-efficient option.\n");
  return 0;
}
