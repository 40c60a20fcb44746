# Extracts every ```cpp block of docs/extending.md into OUT_DIR and compiles
# each one against the library headers, so documented example code that
# stops compiling fails tier-1. ctest drives it (see CMakeLists.txt):
#
#   cmake -DPYTHON=<python3> -DCXX=<c++ compiler> -DSOURCE_DIR=<repo root> \
#         -DOUT_DIR=<output dir> -P tools/doc_snippets.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
execute_process(
  COMMAND "${PYTHON}" "${SOURCE_DIR}/tools/extract_doc_snippets.py"
          "${SOURCE_DIR}/docs/extending.md" "${OUT_DIR}"
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "extract_doc_snippets.py exited ${rc}")
endif()
file(GLOB snippets "${OUT_DIR}/*.cpp")
foreach(snippet ${snippets})
  execute_process(
    COMMAND "${CXX}" -std=c++20 -Wall -Wextra -I "${SOURCE_DIR}/src" -c
            "${snippet}" -o "${snippet}.o"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${snippet} does not compile")
  endif()
  message(STATUS "compiled ${snippet}")
endforeach()
