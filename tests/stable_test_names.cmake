# Fail when a gtest binary's test list is not a stable function of its
# source: list every binary twice, in two processes, and require identical
# output with no pointer value ("0x…") or raw parameter bytes
# ("N-byte object <…>") in any name. ctest names carry each parameterized
# test's printed parameter, so an unstable print renames tests on every
# build.
#
# Arguments (all -D):
#   BINARIES - semicolon-separated gtest executables
if(NOT BINARIES)
  message(FATAL_ERROR "no gtest binaries to list")
endif()
set(failures 0)
foreach(binary IN LISTS BINARIES)
  execute_process(COMMAND ${binary} --gtest_list_tests
                  OUTPUT_VARIABLE first RESULT_VARIABLE rc1)
  execute_process(COMMAND ${binary} --gtest_list_tests
                  OUTPUT_VARIABLE second RESULT_VARIABLE rc2)
  get_filename_component(name ${binary} NAME)
  if(NOT rc1 EQUAL 0 OR NOT rc2 EQUAL 0)
    message(SEND_ERROR "${name}: --gtest_list_tests failed")
    math(EXPR failures "${failures} + 1")
  elseif(NOT first STREQUAL second)
    message(SEND_ERROR "${name}: two listings differ")
    math(EXPR failures "${failures} + 1")
  elseif(first MATCHES "0x[0-9a-fA-F]" OR first MATCHES "-byte object")
    message(SEND_ERROR "${name}: a test name embeds a pointer or raw bytes")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} binary(ies) with unstable test names")
endif()
list(LENGTH BINARIES count)
message(STATUS "stable test names in ${count} gtest binaries")
