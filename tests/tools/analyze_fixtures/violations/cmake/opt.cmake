# A cmake module is a build script too.
set(CMAKE_CXX_FLAGS_RELEASE "-Ofast")  # expect: fast-math
