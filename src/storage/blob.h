#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/macros.h"

/// \file blob.h
/// Payloads stored in the simulated storage services. A Blob either carries
/// real bytes (query data the engine must actually process) or is synthetic —
/// a size without materialized content — so microbenchmarks can move hundreds
/// of GiB/s without allocating them.
///
/// A real Blob is a view: a shared owner of an immutable buffer, the start
/// of its bytes within it and their count. Copies, slices and ranged GETs
/// share the stored buffer instead of copying it; the buffer lives while any
/// view of it does.

namespace skyrise::storage {

class Blob {
 public:
  Blob() = default;

  static Blob FromString(std::string data) {
    auto owner = std::make_shared<const std::string>(std::move(data));
    Blob b;
    b.size_ = static_cast<int64_t>(owner->size());
    const char* start = owner->data();
    b.bytes_ = std::shared_ptr<const char>(std::move(owner), start);
    return b;
  }

  static Blob Synthetic(int64_t size) {
    SKYRISE_CHECK(size >= 0);
    Blob b;
    b.size_ = size;
    return b;
  }

  int64_t size() const { return size_; }
  bool is_synthetic() const { return bytes_ == nullptr; }

  /// Real content, valid while this view or another of its buffer lives;
  /// must not be called on synthetic blobs.
  std::string_view bytes() const {
    SKYRISE_CHECK(!is_synthetic());
    return std::string_view(bytes_.get(), static_cast<size_t>(size_));
  }

  /// A copy of the content, for callers that want a std::string. Code that
  /// keeps a std::string_view reads bytes(): a view of this copy dangles.
  std::string data() const { return std::string(bytes()); }

  /// The buffer's owner, for host-side caches keyed on where a view lies:
  /// while it is live, no other buffer occupies the view's bytes.
  std::weak_ptr<const char> buffer() const { return bytes_; }

  /// Byte range [offset, offset+length), a view of the same buffer. Clamps
  /// to the blob end. Synthetic blobs slice to synthetic blobs.
  Blob Slice(int64_t offset, int64_t length) const {
    SKYRISE_CHECK(offset >= 0 && length >= 0);
    const int64_t begin = std::min(offset, size_);
    const int64_t len = std::min(length, size_ - begin);
    if (is_synthetic()) return Synthetic(len);
    Blob b;
    b.size_ = len;
    b.bytes_ = std::shared_ptr<const char>(bytes_, bytes_.get() + begin);
    return b;
  }

 private:
  /// Aliasing pointer: owns the buffer, points at the view's first byte;
  /// null for a synthetic blob.
  std::shared_ptr<const char> bytes_;
  int64_t size_ = 0;
};

// ObjectStore keeps one Blob per object (~285k in hostbench s3_iops); a
// 32-byte Blob (a separate offset) raised that run's peak RSS by 8.5%.
static_assert(sizeof(Blob) == 24, "a Blob is an aliasing pointer and a size");

}  // namespace skyrise::storage
