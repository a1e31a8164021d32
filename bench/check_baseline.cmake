# Runs a simulated bench and fails unless the rows it emits match a committed
# baseline exactly: same (config, metric) keys, numerically equal values. The
# simulated benches are bit-reproducible, so any difference is a behaviour
# change, not noise.
#
#   cmake -DBENCH=<executable> -DBASELINE=<BENCH_*.json> -DWORK_DIR=<dir>
#         -P check_baseline.cmake
#
# The bench runs in WORK_DIR, emptied first, because EmitBenchResult appends
# to BENCH_<name>.json in the working directory.

foreach(var BENCH BASELINE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_baseline.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${WORK_DIR}" RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
get_filename_component(name "${BASELINE}" NAME)
set(candidate "${WORK_DIR}/${name}")
if(NOT EXISTS "${candidate}")
  message(FATAL_ERROR "${BENCH} wrote no ${name}")
endif()

# Reads a results file into the list <prefix>_keys of "<config> <metric>"
# row keys and one variable <prefix>_<MD5 of key> = value per row.
function(load_rows file prefix)
  file(STRINGS "${file}" lines)
  set(keys "")
  foreach(line IN LISTS lines)
    string(JSON config GET "${line}" config)
    string(JSON metric GET "${line}" metric)
    string(JSON value GET "${line}" value)
    list(APPEND keys "${config} ${metric}")
    string(MD5 id "${config} ${metric}")
    set(${prefix}_${id} "${value}" PARENT_SCOPE)
  endforeach()
  set(${prefix}_keys "${keys}" PARENT_SCOPE)
endfunction()

load_rows("${BASELINE}" base)
load_rows("${candidate}" cand)
set(failures 0)
foreach(key IN LISTS base_keys)
  string(MD5 id "${key}")
  if(NOT DEFINED cand_${id})
    message(SEND_ERROR "missing row ${key}")
    math(EXPR failures "${failures} + 1")
  elseif(NOT base_${id} EQUAL cand_${id})
    message(SEND_ERROR "${key}: baseline ${base_${id}}, now ${cand_${id}}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
foreach(key IN LISTS cand_keys)
  string(MD5 id "${key}")
  if(NOT DEFINED base_${id})
    message(SEND_ERROR "row ${key} is not in ${BASELINE}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
list(LENGTH base_keys rows)
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} row(s) differ from ${BASELINE}")
endif()
message(STATUS "${rows} rows match ${BASELINE}")
