#pragma once

// Included by its own .cpp, a test and a production file (a/user.cpp):
// a run reaches it, so test-only-header stays quiet.
namespace fixture {
int shared();
}  // namespace fixture
