#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"

/// \file parse_memo.h
/// ParseMemo: parses each distinct byte string once, for immutable objects
/// that are read many times (COF table footers, dataset manifests). Equal
/// bytes share one parsed value. Engine-instance state (see
/// engine::EngineContext); not thread-safe.

namespace skyrise {

template <typename T, Result<T> (*kParse)(std::string_view)>
class ParseMemo {
 public:
  /// The parse of `bytes`. Failures are returned every time and not
  /// remembered.
  [[nodiscard]] Result<std::shared_ptr<const T>> Parse(std::string_view bytes) {
    auto it = parsed_.find(bytes);
    if (it == parsed_.end()) {
      T value;
      SKYRISE_ASSIGN_OR_RETURN(value, kParse(bytes));
      it = parsed_
               .emplace(std::string(bytes),
                        std::make_shared<const T>(std::move(value)))
               .first;
    }
    return it->second;
  }

 private:
  std::map<std::string, std::shared_ptr<const T>, std::less<>> parsed_;
};

}  // namespace skyrise
