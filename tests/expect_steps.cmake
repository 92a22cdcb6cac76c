# Runs `CLI ARGS --metrics-out=METRICS` and fails unless it exits 0 and
# the metrics file reports at least one incremental snapshot step.
#   cmake -DCLI=path "-DARGS=a b" -DMETRICS=path -P expect_steps.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE "${METRICS}")
execute_process(COMMAND ${CLI} ${args} --metrics-out=${METRICS}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "exit ${rc}, expected 0\nstdout: ${out}\nstderr: ${err}")
endif()
file(READ "${METRICS}" metrics)
if(NOT metrics MATCHES "\"snapshot\\.steps\": *([0-9]+)")
  message(FATAL_ERROR "no snapshot.steps counter in ${METRICS}")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "snapshot.steps is 0: the sweep never stepped")
endif()
