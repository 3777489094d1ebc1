(* protean-sim: run benchmarks under one defense configuration and
   print execution statistics.

     protean-sim --bench milc --defense prot-track --pass ct --core p
     protean-sim -b milc -b lbm -b mcf -d stt -j 3 --invariants warn

   Mirrors the artifact's per-benchmark entry point (Section A-G3).
   Multiple --bench flags simulate on `-j N` domains; reports print in
   benchmark order either way. *)

open Cmdliner
module Suite = Protean_workloads.Suite
module Defense = Protean_defense.Defense
module Protcc = Protean_protcc.Protcc
module Certify = Protean_protcc.Certify
module Config = Protean_ooo.Config
module Pipeline = Protean_ooo.Pipeline
module Multicore = Protean_ooo.Multicore
module Policy = Protean_ooo.Policy
module Invariants = Protean_ooo.Invariants
module Stats = Protean_ooo.Stats
module Parallel = Protean_harness.Parallel
module Supervisor = Protean_harness.Supervisor
module Shard = Protean_harness.Shard
module Json = Protean_harness.Shard.Json
module Fault_inject = Protean_defense.Fault_inject
module E = Protean_harness.Experiment
module Report = Protean_harness.Report
module Trace = Protean_telemetry.Trace

let bench_arg =
  let doc = "Benchmark name (repeatable; see --list)." in
  Arg.(value & opt_all string [ "milc" ] & info [ "bench"; "b" ] ~docv:"NAME" ~doc)

let defense_arg =
  let doc =
    "Defense: unsafe, nda, stt, spt, spt-sb, prot-delay, prot-track, ..."
  in
  Arg.(value & opt string "unsafe" & info [ "defense"; "d" ] ~docv:"ID" ~doc)

let pass_arg =
  let doc = "ProtCC pass: none, arch, cts, ct, unr, multiclass." in
  Arg.(value & opt string "none" & info [ "pass"; "p" ] ~docv:"PASS" ~doc)

let core_arg =
  let doc = "Core configuration: p, e or test." in
  Arg.(value & opt string "p" & info [ "core" ] ~docv:"CORE" ~doc)

let core_width_arg =
  let doc =
    "Rescale the chosen core to an $(docv)-wide superscalar: \
     fetch/rename/issue/commit widths become $(docv), the ROB/LSQ window \
     scales proportionally, and the structural execution-port model \
     (per-port capability masks, blocking mul/div, a bounded writeback \
     bus) is attached. 0 keeps the core's native width with the \
     port-unconstrained issue model."
  in
  Arg.(value & opt int 0 & info [ "core-width" ] ~docv:"N" ~doc)

let spec_model_arg =
  let doc = "Speculation model: atcommit or control." in
  Arg.(value & opt string "atcommit" & info [ "spec-model" ] ~docv:"MODEL" ~doc)

let invariants_arg =
  let doc =
    "Microarchitectural invariant checking: off, warn (report on stderr, \
     keep going) or fail (raise a simulation fault)."
  in
  Arg.(value & opt string "off" & info [ "invariants" ] ~docv:"MODE" ~doc)

let invariant_every_arg =
  let doc = "Check invariants every N cycles (with --invariants)." in
  Arg.(value & opt int 1 & info [ "invariant-every" ] ~docv:"N" ~doc)

let paranoid_sched_arg =
  let doc =
    "Cross-check the O(active) scheduler indexes (ready set, branch list, \
     in-flight and LSQ queues, wakeup chains, dormancy) against a \
     brute-force ROB scan every cycle, raising a simulation fault on any \
     mismatch. Slow; a debugging aid for scheduler changes. Also enabled \
     by PROTEAN_PARANOID_SCHED=1."
  in
  Arg.(value & flag & info [ "paranoid-sched" ] ~doc)

let check_certs_arg =
  Arg.(value & flag & info [ "check-certs" ]
         ~doc:"Audit each compiled benchmark's protection certificates \
               with the independent checker (static claim audit plus SEQ \
               lockstep replay) before simulating it; a refuted \
               certificate is reported as a structured fault for that \
               benchmark while the rest complete.")

let list_arg =
  let doc = "List available benchmarks and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let inject_arg =
  Arg.(value & opt (some string) None & info [ "inject-faults" ] ~docv:"MODE"
         ~doc:"Self-test the shard supervisor: worker-kill, worker-stall, \
               worker-truncate, or worker-poison:N. Requires --shards > 1.")

let heartbeat_arg =
  Arg.(value & opt float 120.0 & info [ "shard-heartbeat" ] ~docv:"SECS"
         ~doc:"Kill a worker that sends no frame for this long.")

let wall_arg =
  Arg.(value & opt float 3600.0 & info [ "shard-wall" ] ~docv:"SECS"
         ~doc:"Kill a worker spawn that outlives this wall-clock budget.")

(* Supervisor-only flags of this binary, dropped from the worker argv
   on top of the shared ones. *)
let supervisor_flags = [ "--inject-faults"; "--shard-heartbeat"; "--shard-wall" ]

let config_of = function
  | "p" -> Config.p_core
  | "e" -> Config.e_core
  | "test" -> Config.test_core
  | s -> invalid_arg ("unknown core: " ^ s)

let model_of = function
  | "atcommit" -> Policy.Atcommit
  | "control" -> Policy.Control
  | s -> invalid_arg ("unknown speculation model: " ^ s)

let instrument pass program =
  (* With --check-certs every compile result passes the independent
     checker before it is simulated; a refuted certificate raises the
     structured [Certify.Cert_violation] handled by the fault paths. *)
  let audited (r : Protcc.result) =
    if !Certify.enabled then ignore (Certify.audit_exn ~original:program r);
    r.Protcc.program
  in
  match pass with
  | "none" -> program
  | "multiclass" -> audited (Protcc.instrument program)
  | p ->
      let pass =
        match p with
        | "arch" -> Protcc.P_arch
        | "cts" -> Protcc.P_cts
        | "ct" -> Protcc.P_ct
        | "unr" -> Protcc.P_unr
        | s -> invalid_arg ("unknown pass: " ^ s)
      in
      audited (Protcc.instrument ~pass_override:pass program)

(* Render one benchmark's report into a string, so parallel runs can
   print completed reports in benchmark order.  Also returns the run's
   telemetry as an [Experiment.run_result] (stats always; policy
   counters and flame stacks only when collection is enabled) so the
   exporters can fold it into a session. *)
let simulate (b : Suite.benchmark) (d : Defense.t) config spec_model pass
    invariants invariant_every bench =
  let attach, finish = E.collector (d.Defense.id ^ "/" ^ bench) in
  match b.Suite.kind with
  | Suite.Single f ->
      let program = instrument pass (f ()) in
      let on_cycle =
        match invariants with
        | Invariants.Off -> None
        | mode -> Some (Invariants.checker ~every:invariant_every mode)
      in
      let policy = d.Defense.make () in
      let r =
        Pipeline.run ~spec_model ~fuel:50_000_000 ?on_cycle
          ~on_start:(attach ~root:[ d.Defense.id; bench ] program)
          config policy program ~overlays:[]
      in
      let cycles = Stats.measured_cycles r.Pipeline.stats in
      ( Format.asprintf "%s under %s on %s:@.  %a@.  measured cycles: %d@."
          bench d.Defense.id config.Config.name Stats.pp r.Pipeline.stats
          cycles,
        finish ~cycles [ (policy, r.Pipeline.stats) ] )
  | Suite.Multi f ->
      let programs = Array.map (instrument pass) (f ()) in
      let policies = ref [] in
      let make_policy () =
        let p = d.Defense.make () in
        policies := p :: !policies;
        p
      in
      let on_core i =
        attach ~root:[ d.Defense.id; bench; Printf.sprintf "core%d" i ]
          programs.(i)
      in
      let r =
        Multicore.run ~spec_model ~fuel:50_000_000 ~invariants
          ~invariant_every ~on_core config ~make_policy programs
      in
      let res =
        finish ~cycles:r.Multicore.cycles
          (E.core_runs (List.rev !policies) r.Multicore.per_core)
      in
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      Format.fprintf ppf "%s under %s on %d cores: %d cycles@." bench
        d.Defense.id (Array.length programs) r.Multicore.cycles;
      Array.iteri
        (fun i (c : Pipeline.result) ->
          Format.fprintf ppf "  core %d: %a@." i Stats.pp c.Pipeline.stats)
        r.Multicore.per_core;
      Format.pp_print_flush ppf ();
      (Buffer.contents buf, res)

let run (cli : Cli.t) list benches defense pass core core_width spec_model
    invariants invariant_every paranoid_sched check_certs inject heartbeat
    wall =
  let jobs = cli.Cli.jobs and tele = cli.Cli.tele in
  (* Stays in the worker argv (not a supervisor flag): shard workers
     audit the certificates of the cells they compile. *)
  if check_certs then Report.enable_cert_audit ();
  if paranoid_sched then begin
    Pipeline.set_paranoid_sched true;
    (* Spawned --shards workers re-read the environment at startup. *)
    Unix.putenv "PROTEAN_PARANOID_SCHED" "1"
  end;
  if list then
    List.iter
      (fun (b : Suite.benchmark) ->
        Printf.printf "%-18s %-12s %s\n" b.Suite.name b.Suite.suite
          (Protean_isa.Program.string_of_klass b.Suite.klass))
      Suite.all
  else begin
    let d = Defense.find defense in
    let config = config_of core in
    (* --core-width stays in the worker argv (it is not a supervisor
       flag), so --shards workers rebuild the identical config. *)
    let config =
      if core_width > 0 then Config.with_width core_width config else config
    in
    let spec_model = model_of spec_model in
    let invariants = Invariants.mode_of_string invariants in
    let session = E.create_session () in
    let cell_key bench =
      Printf.sprintf "%s|%s|%s" bench d.Defense.id config.Config.name
    in
    let record bench res =
      if Report.wanted tele then
        Hashtbl.replace session.E.cache (cell_key bench) res
    in
    let with_span bench f =
      match !Report.tracer with
      | None -> f ()
      | Some tr ->
          let t0 = Unix.gettimeofday () in
          let r = f () in
          Trace.span tr ~cat:"cell" ~t0 ~t1:(Unix.gettimeofday ())
            (cell_key bench);
          r
    in
    let finish code =
      if Report.wanted tele then
        Report.write_outputs tele session;
      if code <> 0 then exit code
    in
    (* One cell per benchmark; the cell key is the benchmark name, so the
       worker's enumeration is the supervisor's by construction. *)
    let sim_cell bench =
      let b = Suite.find bench in
      match
        simulate b d config spec_model pass invariants invariant_every bench
      with
      | report, res ->
          Json.Obj
            [
              ("report", Json.Str report);
              ("result", Supervisor.Grid.result_to_json res);
            ]
      | exception Pipeline.Sim_fault f ->
          Json.Obj [ ("fault", Json.Str (Pipeline.fault_to_string f)) ]
      | exception (Certify.Cert_violation _ as e) ->
          Json.Obj [ ("fault", Json.Str (Printexc.to_string e)) ]
    in
    let report_fault bench reason =
      Printf.eprintf "[fault] bench=%s defense=%s core=%s: %s\n%!" bench
        d.Defense.id config.Config.name reason
    in
    if Cli.is_worker cli then Cli.serve cli ~compute:sim_cell
    else if Cli.supervised cli then begin
      let cells =
        List.mapi (fun i b -> { Shard.c_id = i; c_key = b }) benches
      in
      let sup_config =
        {
          Supervisor.default_config with
          Supervisor.shards = cli.Cli.shards;
          heartbeat;
          wall;
          inject = Option.map Fault_inject.worker_mode_of_string inject;
        }
      in
      let fallback cells =
        let tasks =
          Array.of_list
            (List.map
               (fun c () -> (c.Shard.c_id, sim_cell c.Shard.c_key))
               cells)
        in
        Array.to_list (Parallel.map ~jobs tasks)
      in
      let outcomes =
        Cli.with_metrics cli ~src:"sim" (Report.live_metrics session)
          (fun http ->
            Cli.dispatch
              (Cli.wiring cli ?http ~drop:supervisor_flags ())
              sup_config ~fallback cells)
      in
      let faulted = ref false in
      List.iter
        (fun (id, outcome) ->
          let bench = List.nth benches id in
          match outcome with
          | Supervisor.O_ok j -> (
              match Json.member "report" j with
              | Json.Str report ->
                  print_string report;
                  (match Json.member "result" j with
                  | Json.Null -> ()
                  | rj -> record bench (Supervisor.Grid.result_of_json rj))
              | _ ->
                  let reason =
                    match Json.member "fault" j with
                    | Json.Str s -> s
                    | _ -> "malformed worker result frame"
                  in
                  report_fault bench reason;
                  faulted := true)
          | Supervisor.O_fault { f_attempts; f_reason; _ } ->
              report_fault bench
                (Printf.sprintf "worker crashed on every attempt (%d): %s"
                   f_attempts f_reason);
              faulted := true)
        outcomes;
      finish (if !faulted then 3 else 0)
    end
    else begin
      let tasks =
        Array.of_list
          (List.map
             (fun bench () ->
               let b = Suite.find bench in
               match
                 with_span bench (fun () ->
                     simulate b d config spec_model pass invariants
                       invariant_every bench)
               with
               | report, res -> Ok (bench, report, res)
               | exception Pipeline.Sim_fault f ->
                   Error (bench, Pipeline.fault_to_string f)
               | exception (Certify.Cert_violation _ as e) ->
                   Error (bench, Printexc.to_string e))
             benches)
      in
      let reports = Parallel.map ~jobs tasks in
      let faulted = ref false in
      Array.iter
        (function
          | Ok (bench, report, res) ->
              print_string report;
              record bench res
          | Error (bench, reason) ->
              (* Report the faulting configuration instead of dying with a
                 raw backtrace, and exit non-zero so scripts notice. *)
              report_fault bench reason;
              faulted := true)
        reports;
      finish (if !faulted then 3 else 0)
    end
  end

let cmd =
  let doc = "simulate a PROTEAN benchmark under a Spectre defense" in
  Cmd.v
    (Cmd.info "protean-sim" ~doc)
    Term.(
      const run $ Cli.term $ list_arg $ bench_arg $ defense_arg $ pass_arg
      $ core_arg $ core_width_arg $ spec_model_arg $ invariants_arg
      $ invariant_every_arg $ paranoid_sched_arg $ check_certs_arg
      $ inject_arg $ heartbeat_arg $ wall_arg)

let () = exit (Cmd.eval cmd)
