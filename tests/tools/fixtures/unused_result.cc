// Compile-only fixture: every line marked `expect-unused-result` drops a
// Status or Result<T> on the floor and must be rejected by
// -Werror=unused-result through the class-level [[nodiscard]] on Status and
// Result alone. No function here carries its own [[nodiscard]].
// tests/tools/unused_result.cmake compiles this file with -fsyntax-only and
// requires exactly one unused-result error per marked line.
#include "common/result.h"
#include "common/status.h"

namespace skyrise {

Status WriteThing();
Result<int> ComputeThing();

class Store {
 public:
  virtual ~Store() = default;
  Status Delete();
  Result<int> Count();
  static Status Open();
  virtual Status Flush();
};

template <typename T>
Result<T> Parse() {
  return T{};
}

void Caller(Store* store, Store& ref) {
  WriteThing();      // expect-unused-result
  ComputeThing();    // expect-unused-result
  store->Delete();   // expect-unused-result
  store->Count();    // expect-unused-result
  ref.Delete();      // expect-unused-result
  ref.Count();       // expect-unused-result
  Store::Open();     // expect-unused-result
  ref.Flush();       // expect-unused-result
  Parse<int>();      // expect-unused-result
}

}  // namespace skyrise
