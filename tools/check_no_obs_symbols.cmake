# Script-mode check (cmake -P): fail if any of the given static libraries
# references the flowpulse::obs namespace. Run by the trace_zero_cost_symbols
# test against the hot-path libs in every build: they reach the flight
# recorder only through core::TraceSink, the interface FP_TRACE emits into,
# and never link the observability layer itself.
#
# Usage: cmake -DNM=/usr/bin/nm "-DLIBS=a.a;b.a;..." -P check_no_obs_symbols.cmake

if(NOT DEFINED NM OR NOT DEFINED LIBS)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DLIBS=<lib;lib;...> -P check_no_obs_symbols.cmake")
endif()

set(tainted "")
foreach(lib IN LISTS LIBS)
  if(NOT EXISTS "${lib}")
    message(FATAL_ERROR "library not found: ${lib}")
  endif()
  execute_process(COMMAND "${NM}" "${lib}"
    OUTPUT_VARIABLE symbols
    RESULT_VARIABLE rc
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nm failed on ${lib}: ${err}")
  endif()
  # Itanium mangling of the flowpulse::obs namespace: ...9flowpulse3obs...
  string(FIND "${symbols}" "9flowpulse3obs" hit)
  if(NOT hit EQUAL -1)
    list(APPEND tainted "${lib}")
  endif()
endforeach()

if(tainted)
  message(FATAL_ERROR
    "obs symbols leaked into hot-path libraries: ${tainted}\n"
    "Hot-path code must reach the flight recorder only through core::TraceSink.")
endif()
message(STATUS "no obs symbols in ${LIBS}")
