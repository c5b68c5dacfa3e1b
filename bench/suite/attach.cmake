# Attaches this directory to the repository's own top-level build, so the
# benchmark's binaries are compiled by the same build definition (flags,
# build type, libraries) as the shipped ones:
#
#   cmake -S . -B <tree> -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_fedclust_INCLUDE=bench/suite/attach.cmake
#
# CMake includes this file right after project(fedclust). The deferred
# include of CMakeLists.txt runs once the top-level CMakeLists.txt is done,
# when every module library and campaign binary is defined. (CMake does not
# allow add_subdirectory in deferred calls.)
set(FEDCLUST_BENCH_SUITE_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${FEDCLUST_BENCH_SUITE_DIR}/CMakeLists.txt")
