#pragma once  // expect: test-only-header

// Seeded test-only header: its own .cpp and one test include it, nothing
// a run builds does.
namespace fixture {
int probe();
}  // namespace fixture
