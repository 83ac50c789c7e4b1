# Runs mykil_sim on malformed command lines; each must exit 2 and print the
# usage on stderr.
#
#   cmake -DSIM=<path to mykil_sim> -P expect_usage.cmake
foreach(args "--help" "--bogus;4" "4;abc" "4;-1" "1;2;3;4;5;6;7;8"
             "--chaos;7;4" "--workers;x;4"
             "--checkpoint;--chaos;7" "--checkpoint=/tmp/x;--chaos;7")
  execute_process(COMMAND ${SIM} ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: mykil_sim")
    message(FATAL_ERROR
            "mykil_sim ${args}: exit ${rc}, want 2 and usage\n${err}")
  endif()
endforeach()
