// Fixture: a member container declared in a header, iterated in the paired
// source file (unordered_member.cc).
#pragma once

#include <unordered_map>
#include <vector>

class Box {
 public:
  std::vector<int> Keys() const;

 private:
  std::unordered_map<int, int> items_;
};
