#include <gtest/gtest.h>

#include "common/histogram.h"
#include "storage/blob.h"
#include "storage/latency_model.h"

namespace skyrise::storage {
namespace {

TEST(BlobTest, RealBlob) {
  Blob b = Blob::FromString("abcdef");
  EXPECT_EQ(b.size(), 6);
  EXPECT_FALSE(b.is_synthetic());
  EXPECT_EQ(b.data(), "abcdef");
}

TEST(BlobTest, SyntheticBlob) {
  Blob b = Blob::Synthetic(5 * kGiB);
  EXPECT_EQ(b.size(), 5 * kGiB);
  EXPECT_TRUE(b.is_synthetic());
}

TEST(BlobTest, SliceReal) {
  Blob b = Blob::FromString("0123456789");
  EXPECT_EQ(b.Slice(3, 4).data(), "3456");
  EXPECT_EQ(b.Slice(8, 100).data(), "89");  // Clamped.
  EXPECT_EQ(b.Slice(100, 5).size(), 0);
  EXPECT_EQ(b.Slice(0, 0).size(), 0);
}

TEST(BlobTest, SliceSynthetic) {
  Blob b = Blob::Synthetic(100);
  Blob s = b.Slice(90, 50);
  EXPECT_TRUE(s.is_synthetic());
  EXPECT_EQ(s.size(), 10);
}

TEST(BlobTest, EmptyRealBlobIsNotSynthetic) {
  Blob b = Blob::FromString("");
  EXPECT_FALSE(b.is_synthetic());
  EXPECT_EQ(b.bytes(), "");
  EXPECT_FALSE(b.Slice(0, 5).is_synthetic());
}

TEST(BlobTest, SliceSharesTheSourceBuffer) {
  Blob b = Blob::FromString("0123456789");
  Blob s = b.Slice(3, 4);
  EXPECT_EQ(s.bytes(), "3456");
  EXPECT_EQ(s.bytes().data(), b.bytes().data() + 3);
  // A slice of a slice views the first buffer at the summed offset, and
  // clamps to the slice's end, not the buffer's.
  Blob t = s.Slice(1, 2);
  EXPECT_EQ(t.bytes(), "45");
  EXPECT_EQ(t.bytes().data(), b.bytes().data() + 4);
  Blob u = s.Slice(2, 100);
  EXPECT_EQ(u.bytes(), "56");
  EXPECT_EQ(u.bytes().data(), b.bytes().data() + 5);
  EXPECT_EQ(s.Slice(9, 1).size(), 0);
  EXPECT_FALSE(s.Slice(9, 1).is_synthetic());
  // data() is a copy; the buffer lives while any view of it does.
  EXPECT_EQ(s.data(), "3456");
  std::weak_ptr<const char> buffer = b.buffer();
  b = Blob();
  s = Blob();
  u = Blob();
  EXPECT_FALSE(buffer.expired());
  EXPECT_EQ(t.bytes(), "45");
  t = Blob();
  EXPECT_TRUE(buffer.expired());
}

TEST(BlobTest, SyntheticSliceOfASlice) {
  Blob s = Blob::Synthetic(100).Slice(10, 50).Slice(45, 20);
  EXPECT_TRUE(s.is_synthetic());
  EXPECT_EQ(s.size(), 5);
  EXPECT_TRUE(s.buffer().expired());
}

TEST(BlobTest, SharedOwnershipIsCheap) {
  Blob a = Blob::FromString(std::string(1000, 'x'));
  Blob b = a;  // Copy shares the buffer.
  EXPECT_EQ(a.bytes().data(), b.bytes().data());
}

TEST(LatencyModelTest, MedianP95Calibration) {
  LatencyProfile p = LatencyProfile::FromMedianP95(27, 75);
  Rng rng(11);
  Histogram h;
  for (int i = 0; i < 200000; ++i) {
    h.Record(ToMillis(SampleLatency(p, &rng)));
  }
  EXPECT_NEAR(h.Percentile(50), 27, 1.5);
  EXPECT_NEAR(h.Percentile(95), 75, 4);
}

TEST(LatencyModelTest, TailMixtureProducesOutliers) {
  LatencyProfile p = LatencyProfile::FromMedianP95(27, 75);
  p.tail_probability = 2e-4;
  p.tail_scale_ms = 300;
  p.tail_alpha = 1.1;
  Rng rng(13);
  double max_ms = 0;
  for (int i = 0; i < 1000000; ++i) {
    max_ms = std::max(max_ms, ToMillis(SampleLatency(p, &rng)));
  }
  // Fig. 10: over 1M requests, the slowest S3 reads take seconds (374x the
  // median in the paper's run).
  EXPECT_GT(max_ms, 2000);
}

TEST(LatencyModelTest, MinimumLatencyEnforced) {
  LatencyProfile p;
  p.median_ms = 0.01;
  p.sigma = 0.1;
  p.min_ms = 0.2;
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(SampleLatency(p, &rng), Micros(200));
  }
}

}  // namespace
}  // namespace skyrise::storage
