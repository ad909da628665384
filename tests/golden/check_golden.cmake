# Runs one program and compares the out.json it writes, byte for byte,
# with a committed golden. A ctest entry per golden (CMakeLists.txt):
#
#   cmake -DGOLDEN=<file> -DWORK_DIR=<dir> [-DFIELDS=a,b,...]
#         -P check_golden.cmake -- <program> <args>...
#
# The program runs in WORK_DIR (emptied first) and must write out.json there.
# FIELDS keeps only those `"field":value` pairs of each one-line `{...}`
# row, in that order, for outputs that also carry wall-clock readings.
foreach(var GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden: -D${var}= is required")
  endif()
endforeach()

set(command "")
set(in_command FALSE)
math(EXPR last_arg "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last_arg})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "check_golden: no program after --")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND ${command} WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "check_golden: ${command} exited with ${status}")
endif()

set(actual_file "${WORK_DIR}/out.json")
file(READ "${actual_file}" actual)
if(DEFINED FIELDS)
  # Rows are flat one-line objects; the header and footer lines are not.
  string(REPLACE "," ";" fields "${FIELDS}")
  string(REGEX MATCHALL "{[^\n{}]*}" rows "${actual}")
  set(actual "")
  foreach(row IN LISTS rows)
    set(kept "")
    foreach(field IN LISTS fields)
      if(row MATCHES "\"${field}\":[^,}]*")
        list(APPEND kept "${CMAKE_MATCH_0}")
      endif()
    endforeach()
    list(JOIN kept "," kept)
    string(APPEND actual "{${kept}}\n")
  endforeach()
  set(actual_file "${actual_file}.fields")
  file(WRITE "${actual_file}" "${actual}")
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "check_golden: ${actual_file} differs from ${GOLDEN}.\n"
          "If the change is intended, copy the new output over the golden "
          "in the same commit that changed it.")
endif()
