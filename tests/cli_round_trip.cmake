# CLI round trip over tests/cli_round_trip.xml, run by ctest as
# CliRoundTrip:
#
#   cmake -DCLI=<pbitree_cli> -DFIXTURE=<doc.xml> -DWORK_DIR=<dir>
#         -P cli_round_trip.cmake
#
# 1. The fixture encoded plain and with --segments 1 answers four path
#    queries, one with a multi-step predicate, with equal match counts.
#    Each query runs twice on each database and must repeat its count.
#    The growth of each database file per query is reported, and no
#    query may grow a file by more than 20 KiB.
# 2. Re-encoding into the level-1 database without --segments keeps it
#    at level 1, so its sets stay immutable (update -> Unimplemented).
# 3. On the plain database an insert under the root (code 32768 in the
#    fixture's height-16 PBiTree) adds one //doc//b match, and deleting
#    the printed code takes it away again.
# 4. A document with 43 distinct tags overfills the 42-entry catalog:
#    encode stores 42 sets and exits 1, and encoding it again into the
#    full catalog replaces the same 42 sets (and exits 1 again).

foreach(var CLI FIXTURE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_round_trip.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(plain "${WORK_DIR}/plain.db")
set(seg "${WORK_DIR}/seg.db")

# Runs the CLI with the remaining arguments; stdout+stderr land in
# `out_var`, and the exit code must equal `want_rc`.
function(run_cli want_rc out_var)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE out)
  if(NOT rc EQUAL want_rc)
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR
            "pbitree_cli ${cmd}: exit ${rc}, want ${want_rc}\n${out}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Total size in bytes of a database's files (the main file plus any
# segment files).
function(db_bytes db out_var)
  file(GLOB files "${db}" "${db}.seg*")
  set(total 0)
  foreach(f IN LISTS files)
    file(SIZE "${f}" size)
    math(EXPR total "${total} + ${size}")
  endforeach()
  set(${out_var} "${total}" PARENT_SCOPE)
endfunction()

# Match count that `query <db> <path>` prints. Also reports how many
# bytes the query added to the database files, and fails above 20 KiB.
function(query_count db path out_var)
  db_bytes("${db}" before)
  run_cli(0 out query "${db}" "${path}")
  if(NOT out MATCHES "^([0-9]+) matches")
    message(FATAL_ERROR "query ${db} ${path}: no match count in\n${out}")
  endif()
  set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
  db_bytes("${db}" after)
  math(EXPR growth "${after} - ${before}")
  get_filename_component(name "${db}" NAME)
  message(STATUS "${name} ${path}: ${CMAKE_MATCH_1} matches, "
                 "file growth ${growth} bytes")
  if(growth GREATER 20480)
    message(FATAL_ERROR "${path} grew ${name} by ${growth} bytes (> 20 KiB)")
  endif()
endfunction()

# 1. Plain and segmented encodes agree, and repeated queries repeat.
run_cli(0 out encode "${FIXTURE}" "${plain}")
run_cli(0 out encode --segments 1 "${FIXTURE}" "${seg}")
foreach(path "//a//b" "//a[//c]//b" "//doc//b//c" "//a[//d//b]//c")
  query_count("${plain}" "${path}" n_plain)
  query_count("${seg}" "${path}" n_seg)
  if(NOT n_plain EQUAL n_seg OR n_plain EQUAL 0)
    message(FATAL_ERROR "${path}: plain ${n_plain} vs segmented ${n_seg}")
  endif()
  query_count("${plain}" "${path}" n_plain_again)
  query_count("${seg}" "${path}" n_seg_again)
  if(NOT n_plain_again EQUAL n_plain OR NOT n_seg_again EQUAL n_seg)
    message(FATAL_ERROR "${path}: repeat gave plain ${n_plain_again}, "
                        "segmented ${n_seg_again}, want ${n_plain}")
  endif()
endforeach()

# 2. A re-encode keeps the database's level.
run_cli(0 out encode "${FIXTURE}" "${seg}")
run_cli(0 out list "${seg}")
if(NOT out MATCHES "segmented database: level 1")
  message(FATAL_ERROR "re-encoded database lost its level:\n${out}")
endif()
run_cli(1 out update "${seg}" insert b 32768 1 0)
if(NOT out MATCHES "Unimplemented")
  message(FATAL_ERROR "update of a segmented set: want Unimplemented\n${out}")
endif()

# 3. Insert, then delete, on the plain database.
query_count("${plain}" "//doc//b" n_before)
run_cli(0 out update "${plain}" insert b 32768 1 0)
if(NOT out MATCHES "inserted code=([0-9]+)")
  message(FATAL_ERROR "insert printed no code:\n${out}")
endif()
set(code "${CMAKE_MATCH_1}")
query_count("${plain}" "//doc//b" n_inserted)
math(EXPR n_want "${n_before} + 1")
if(NOT n_inserted EQUAL n_want)
  message(FATAL_ERROR "//doc//b after insert: ${n_inserted}, want ${n_want}")
endif()
run_cli(0 out update "${plain}" delete b "${code}")
query_count("${plain}" "//doc//b" n_deleted)
if(NOT n_deleted EQUAL n_before)
  message(FATAL_ERROR "//doc//b after delete: ${n_deleted}, want ${n_before}")
endif()

# 4. More tags than catalog entries.
set(wide "${WORK_DIR}/wide.xml")
set(wide_db "${WORK_DIR}/wide.db")
set(xml "<r>")
foreach(i RANGE 1 42)
  string(APPEND xml "<t${i}/>")
endforeach()
file(WRITE "${wide}" "${xml}</r>\n")
set(listings "")
foreach(pass 1 2)
  run_cli(1 out encode "${wide}" "${wide_db}")
  if(NOT out MATCHES "stored 42 element sets" OR
     NOT out MATCHES "catalog full; skipping 1 less frequent tags")
    message(FATAL_ERROR "encode ${pass} of 43 tags: want 42 stored, "
                        "1 skipped\n${out}")
  endif()
  run_cli(0 out list "${wide_db}")
  string(REGEX MATCHALL "\n(r|t[0-9]+) +1 " rows "${out}")
  list(LENGTH rows n_rows)
  if(NOT n_rows EQUAL 42)
    message(FATAL_ERROR "encode ${pass} of 43 tags lists ${n_rows} sets, "
                        "want 42:\n${out}")
  endif()
  list(APPEND listings "${out}")
endforeach()
list(GET listings 0 first)
list(GET listings 1 second)
if(NOT first STREQUAL second)
  message(FATAL_ERROR "re-encode changed the stored sets:\n${first}\n"
                      "--- then ---\n${second}")
endif()
