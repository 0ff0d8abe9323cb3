# Header reachability check, run by ctest as HeaderReachability:
#
#   cmake -DROOT=<repository root> -P header_reachability.cmake
#
# Fails when a header under src/ is included by nothing outside a tests/
# directory except its own .cc, i.e. when a module is reachable only
# from its own tests. Includers are the library itself, the tools, the
# benches, the examples and perfbench's workloads. Includes are matched
# as written (`#include "dir/name.h"`, rooted at src/).

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED ROOT)
  message(FATAL_ERROR "header_reachability.cmake: -DROOT=... is required")
endif()

# Headers kept although only tests include them, each with its reason.
set(allowed
  # The parser's round-trip oracle: the XML tests print a parsed tree
  # and parse it back.
  xml/serializer.h
)

file(GLOB_RECURSE headers RELATIVE "${ROOT}/src" "${ROOT}/src/*.h")
file(GLOB_RECURSE includers RELATIVE "${ROOT}"
     "${ROOT}/src/*.h" "${ROOT}/src/*.cc"
     "${ROOT}/tools/*.h" "${ROOT}/tools/*.cc"
     "${ROOT}/bench/*.h" "${ROOT}/bench/*.cc"
     "${ROOT}/examples/*.h" "${ROOT}/examples/*.cpp"
     "${ROOT}/perfbench/src/*.h" "${ROOT}/perfbench/src/*.cc")

# included_by_<header> lists every includer of that header.
foreach(file IN LISTS includers)
  file(STRINGS "${ROOT}/${file}" lines REGEX "^#include \"[^\"]+\"")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^#include \"([^\"]+)\".*" "\\1" inc "${line}")
    list(APPEND included_by_${inc} "${file}")
  endforeach()
endforeach()

set(unreached "")
foreach(header IN LISTS headers)
  if(header IN_LIST allowed)
    continue()
  endif()
  string(REGEX REPLACE "\\.h$" ".cc" own_cc "src/${header}")
  set(users ${included_by_${header}})
  list(REMOVE_ITEM users "${own_cc}")
  if(NOT users)
    list(APPEND unreached "src/${header}")
  endif()
endforeach()

list(LENGTH headers num_headers)
if(unreached)
  list(JOIN unreached "\n  " unreached_lines)
  message(FATAL_ERROR
          "headers included only by tests (or by nothing but their own "
          ".cc):\n  ${unreached_lines}\nDelete the module, or give it a "
          "user outside tests/.")
endif()
message(STATUS "all ${num_headers} headers under src/ have a user outside tests/")
