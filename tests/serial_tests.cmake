# Included by ctest after the discovered gtest lists (TEST_INCLUDE_FILES in
# tests/CMakeLists.txt): properties of individual discovered tests.
#
# SlowdownStretchesMeasuredTime asserts a ratio of two timed runs in one
# process; a sibling test preempting the un-slowed run shrinks the ratio.
set_tests_properties(BenchHarness.SlowdownStretchesMeasuredTime
                     PROPERTIES RUN_SERIAL TRUE)
