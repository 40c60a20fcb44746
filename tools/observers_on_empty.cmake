# Runs churnet_sweep with the expansion and spectral observers on a spec
# whose network is empty (or one node) at the observation point, and
# requires exit 0 with every observer column NaN (an empty CSV value).
# ctest drives it (see CMakeLists.txt):
#
#   cmake -DSWEEP=<churnet_sweep> -DOUT_DIR=<output dir> \
#         -P tools/observers_on_empty.cmake
set(csv "${OUT_DIR}/observers_on_empty.csv")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
  COMMAND "${SWEEP}" --scenarios "PDGR+pareto(1.0000001)" --n 1,200 --d 4
          --reps 1 --threads 1 --observers "expansion(4)+spectral"
          --csv "${csv}" --quiet
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "churnet_sweep exited ${rc}")
endif()
file(STRINGS "${csv}" rows REGEX ",(expansion|spectral)_[a-z0-9_]+,")
list(LENGTH rows count)
# Two cells, three columns per observer.
if(NOT count EQUAL 12)
  message(FATAL_ERROR "expected 12 observer rows, found ${count}")
endif()
foreach(row IN LISTS rows)
  if(NOT row MATCHES ",$")
    message(FATAL_ERROR "observer column not NaN: ${row}")
  endif()
endforeach()
