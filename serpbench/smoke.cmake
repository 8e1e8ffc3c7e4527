# Runs every workload at 1/50 size, then one traced run; fails on the
# first nonzero exit. Invoked by the serpbench_smoke test with
# -DSERPBENCH=<binary> -DOUT=<output directory>.
function(run_serpbench workload trace)
  execute_process(
    COMMAND ${SERPBENCH} --workload ${workload} --seed 1 --seconds 0
            --trace ${trace} --scale 0.02 --out ${OUT}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "serpbench --workload ${workload} --trace ${trace} exited with "
            "${status}")
  endif()
endfunction()

foreach(workload batch-loss-1024 knee-loss overload-fifo fleet-replicated)
  run_serpbench(${workload} 0)
endforeach()
run_serpbench(fleet-replicated 1)
