let () =
  Alcotest.run "protean"
    [
      ("isa", Test_isa.tests);
      ("arch", Test_arch.tests);
      ("memmodel", Test_memmodel.tests);
      ("protcc", Test_protcc.tests);
      ("certify", Test_certify.tests);
      ("ooo", Test_ooo.tests);
      ("defense", Test_defense.tests);
      ("workloads", Test_workloads.tests);
      ("amulet", Test_amulet.tests);
      ("harness", Test_harness.tests);
      ("edge", Test_edge.tests);
      ("robustness", Test_robustness.tests);
      (* golden runs its width corpus under a supervised two-shard grid,
         so it must precede the supervisor suite: the latter's final test
         sets PROTEAN_NO_SPAWN=1 for the rest of the process. *)
      ("golden", Test_golden.tests);
      (* Spawns workers, so it too must precede the supervisor suite. *)
      ("dispatch", Test_dispatch.tests);
      ("supervisor", Test_supervisor.tests);
      ("transport", Test_transport.tests);
      ("telemetry", Test_telemetry.tests);
      ("hotloop", Test_hotloop.tests);
    ]
