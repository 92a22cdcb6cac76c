# Runs `CLI ARGS` and fails unless it exits with CODE and its stderr
# matches STDERR_REGEX.
#   cmake -DCLI=path "-DARGS=a b" -DCODE=2 "-DSTDERR_REGEX=..." -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${args} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL CODE)
  message(FATAL_ERROR "exit ${rc}, expected ${CODE}\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}': ${err}")
endif()
