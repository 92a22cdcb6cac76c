# Fails unless every study `CLI studies` lists is in STUDIES, the
# space-separated names tests/CMakeLists.txt registers smoke tests for.
#   cmake -DCLI=path/to/leosim_cli "-DSTUDIES=a b c" -P check_study_smokes.cmake
execute_process(COMMAND ${CLI} studies RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "`leosim_cli studies` exited ${rc}")
endif()
separate_arguments(smoked UNIX_COMMAND "${STUDIES}")
string(REGEX MATCHALL "[^\n]+" lines "${out}")
foreach(line ${lines})
  string(REGEX MATCH "^[^ ]+" name "${line}")
  list(FIND smoked "${name}" index)
  if(index EQUAL -1)
    message(FATAL_ERROR "registered study ${name} has no smoke test; add it "
                        "to LEOSIM_STUDIES in tests/CMakeLists.txt")
  endif()
endforeach()
