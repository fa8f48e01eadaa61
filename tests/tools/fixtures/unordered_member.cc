// Fixture: the loop leaks the hash order of a member that only the paired
// header declares.
#include "unordered_member.h"

std::vector<int> Box::Keys() const {
  std::vector<int> keys;
  for (const auto& [key, value] : items_) {
    keys.push_back(key);
  }
  return keys;  // fires: keys still carry hash order
}
