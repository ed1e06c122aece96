# Script-mode check (cmake -P): fail if any of the given static libraries
# defines a writable (mutable, static-storage) data symbol that is not on
# the allowlist. This is the post-build teeth behind fplint's
# mutable-global rule: the lint sees source lines, nm sees what the
# compiler actually emitted — function-local static guard variables,
# .bss/.data objects from templates or macros, anything the line-level
# heuristics cannot. Run by the mutable_state_symbols ctest over every
# fp_* library.
#
# Writable nm types: B/b (.bss), D/d (.data), G/g (small data), S/s
# (small bss). Read-only data (R/r) and functions (T/t/W/w) are fine.
#
# Excluded (not program state):
#   _ZTI / _ZTS / _ZTV   RTTI typeinfo / typeinfo-name / vtables (nm
#                        reports vtables as writable D on some targets
#                        because of relocations, but they are never
#                        written after load)
#   _ZZ...__ioinit       iostream init guard (std::ios_base::Init)
#   _ZGR                 lifetime-extended temporaries of constinit refs
#
# Allowlist (regex per entry, with justification — mirror of the fplint
# waivers in the source):
#   flowpulse::sim::audit anonymous-namespace hooks (g_handler,
#   g_dump_hook, g_dump_ctx): test-only ScopedHandler bridge, installed
#   before any simulation thread exists, read only on the failure path.
#
# Usage: cmake -DNM=/usr/bin/nm "-DLIBS=a.a;b.a;..." -P check_mutable_symbols.cmake

if(NOT DEFINED NM OR NOT DEFINED LIBS)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DLIBS=<lib;lib;...> -P check_mutable_symbols.cmake")
endif()

set(FP_ALLOWED_SYMBOLS
  "^_ZN9flowpulse3sim5audit12_GLOBAL__N_1(9g_handlerE|11g_dump_hookE|10g_dump_ctxE)$"
)

set(violations "")
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
  string(REPLACE "\n" ";" lines "${symbols}")
  foreach(line IN LISTS lines)
    # "<addr> <type> <name>" — writable data types only.
    if(NOT line MATCHES "^[0-9a-fA-F]+ ([BbDdGgSs]) (.+)$")
      continue()
    endif()
    set(name "${CMAKE_MATCH_2}")
    if(name MATCHES "^_ZT[ISV]" OR name MATCHES "__ioinit" OR name MATCHES "^_ZGR")
      continue()
    endif()
    set(allowed FALSE)
    foreach(pattern IN LISTS FP_ALLOWED_SYMBOLS)
      if(name MATCHES "${pattern}")
        set(allowed TRUE)
        break()
      endif()
    endforeach()
    if(NOT allowed)
      get_filename_component(libname "${lib}" NAME)
      list(APPEND violations "${libname}: ${name}")
    endif()
  endforeach()
endforeach()

if(violations)
  list(JOIN violations "\n  " joined)
  message(FATAL_ERROR
    "writable static-storage symbols outside the allowlist:\n  ${joined}\n"
    "Hidden mutable globals break the serial == parallel guarantee. Hoist "
    "the state into an owning object, or — if the access protocol is "
    "genuinely safe — add the mangled symbol to FP_ALLOWED_SYMBOLS in "
    "tools/check_mutable_symbols.cmake WITH a justification, next to a "
    "matching fplint waiver in the source.")
endif()
message(STATUS "no unexpected mutable symbols in ${LIBS}")
