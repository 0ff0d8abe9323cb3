# Tiny-scale smoke run of one workload: must exit 0 and end with a JSON
# line that reports correct outputs and no failed operations.
set(dir ${WORKDIR}/${WORKLOAD}_${TRACE})
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})
execute_process(
  COMMAND ${BIN} --workload ${WORKLOAD} --seed 7 --seconds 0.5 --trace ${TRACE}
          --workdir ${dir} --trace-out ${dir}/spans.jsonl --scale 0.2
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
file(REMOVE_RECURSE ${dir})
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "perfbench exited ${rc}\n${out}\n${err}")
endif()
string(REGEX MATCH "[^\n]*\n?$" last "${out}")
if(NOT last MATCHES "^\\{\"correct\": true, \"attempted\": [1-9][0-9]*, \"failed\": 0, \"metrics\": \\{")
  message(FATAL_ERROR "unexpected result line: ${last}\n${out}")
endif()
