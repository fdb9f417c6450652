# Figure goldens: runs FIGURES (bench_figures, every report) at
# SVCDISC_SCALE=0.1 in WORK_DIR and byte-compares its stdout and every
# file it wrote against the same-named files in GOLDEN_DIR.
#
#   cmake -DFIGURES=... -DGOLDEN_DIR=... -DWORK_DIR=... -P check_figures.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{SVCDISC_SCALE} 0.1)
execute_process(COMMAND "${FIGURES}"
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_FILE "${WORK_DIR}/stdout.txt"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "bench_figures exited with ${status}")
endif()

file(GLOB golden RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/*")
file(GLOB got RELATIVE "${WORK_DIR}" "${WORK_DIR}/*")
list(SORT golden)
list(SORT got)
if(NOT golden STREQUAL got)
  message(FATAL_ERROR "file sets differ\n  golden: ${golden}\n  got:    ${got}")
endif()
set(failed "")
foreach(name IN LISTS golden)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${GOLDEN_DIR}/${name}" "${WORK_DIR}/${name}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND failed "${name}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "differ from the goldens in ${GOLDEN_DIR}: ${failed}\n"
    "(fresh output in ${WORK_DIR}; diff the two to see the change)")
endif()
list(LENGTH golden count)
message(STATUS "${count} figure artifacts match the goldens")
