(* Test driver: one Alcotest suite per library/module group. *)
let () =
  Alcotest.run "cheriot"
    [
      ("perm", Test_perm.suite);
      ("bounds", Test_bounds.suite);
      ("capability", Test_capability.suite);
      ("mem", Test_mem.suite);
      ("isa", Test_isa.suite);
      ("uarch", Test_uarch.suite);
      ("rtos", Test_rtos.suite);
      ("compartments", Test_compartments.suite);
      ("preemption", Test_preemption.suite);
      ("sealing-service", Test_sealing_service.suite);
      ("fuzz", Test_fuzz.suite);
      ("differential", Test_differential.suite);
      ("proptest", Test_prop.suite);
      ("block-cache", Test_block_cache.suite);
      ("integration", Test_integration.suite);
      ("area", Test_area.suite);
      ("workloads", Test_workloads.suite);
      ("absdom", Test_absdom.suite);
      ("audit", Test_audit.suite);
      ("planverify", Test_planverify.suite);
      ("incremental", Test_incremental.suite);
    ]
