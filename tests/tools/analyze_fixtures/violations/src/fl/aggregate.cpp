// Output-affecting layer fixtures: unordered iteration (decl, begin(),
// range-for), float accumulation inside unordered iteration, and a
// container of live devices held around the lease seam.
//
// Fixtures are lexed, never compiled: ClientDevice is the real tree's sim
// type and stays undeclared here on purpose.
#include <unordered_map>
#include <vector>

namespace fixture {

using UpdateMap = std::unordered_map<int, double>;  // expect: unordered-iter

double aggregate(const UpdateMap& fresh) {  // expect: unordered-iter
  std::unordered_map<int, double> updates;  // expect: unordered-iter
  UpdateMap aliased;                        // expect: unordered-iter
  double total = 0.0;
  for (const auto& entry : updates) {  // expect: unordered-iter
    total += entry.second;  // expect: unordered-float-accum
  }
  auto it = aliased.begin();  // expect: unordered-iter
  (void)it;
  (void)fresh;
  return total;
}

struct Roster {
  std::vector<ClientDevice> devices;  // expect: client-container, device-seam
};

}  // namespace fixture
