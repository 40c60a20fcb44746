# Runs churnet_repro's quick spectral-gap and resilience targets at 1 and 4
# threads and compares each CSV byte for byte with its golden. ctest drives
# it (see CMakeLists.txt):
#
#   cmake -DREPRO=<churnet_repro> -DGOLDEN_DIR=<tools/golden> \
#         -DOUT_DIR=<output dir> -P tools/repro_goldens.cmake
foreach(threads 1 4)
  set(out "${OUT_DIR}/t${threads}")
  execute_process(
    COMMAND "${REPRO}" --quick --only spectral-gap,resilience
            --threads ${threads} --quiet --out "${out}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "churnet_repro --threads ${threads} exited ${rc}")
  endif()
  foreach(pair "spectral-gap:churnet_repro_quick"
               "resilience:churnet_repro_resilience_quick")
    string(REPLACE ":" ";" pair "${pair}")
    list(GET pair 0 target)
    list(GET pair 1 golden)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files "${out}/${target}.csv"
              "${GOLDEN_DIR}/${golden}.golden.csv"
      RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      message(FATAL_ERROR "${target}.csv at --threads ${threads} differs "
                          "from ${golden}.golden.csv")
    endif()
  endforeach()
endforeach()
