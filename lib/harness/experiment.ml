(* Experiment runner: simulate (benchmark, defense-configuration) pairs
   and report runtimes normalized to the unsafe baseline, with
   memoization so the table/figure generators can share runs.

   Following the paper's methodology (Section VIII-A):
   - baselines (unsafe, STT, SPT, SPT-SB) run the *base* binary;
   - PROTEAN configurations run the *ProtCC* binary, compiled with the
     appropriate pass (or with per-function classes for multi-class
     programs);
   - normalized runtime = cycles(defense) / cycles(unsafe-on-base). *)

module Defense = Protean_defense.Defense
module Protcc = Protean_protcc.Protcc
module Config = Protean_ooo.Config
module Pipeline = Protean_ooo.Pipeline
module Policy = Protean_ooo.Policy
module Multicore = Protean_ooo.Multicore
module Stats = Protean_ooo.Stats
module Profile = Protean_ooo.Profile
module Pstate = Protean_ooo.Pipeline_state
module Spec_window = Protean_ooo.Spec_window
module Suite = Protean_workloads.Suite
module Program = Protean_isa.Program
module Tlog = Protean_telemetry.Log
module Flame = Protean_telemetry.Flame
module Twindow = Protean_telemetry.Window

type defense_cfg = {
  label : string;
  defense : Defense.t;
  pass : Protcc.pass option;
      (* ProtCC pass to compile the benchmark with; [None] = base binary.
         [Some P_arch] also runs the base binary (ProtCC-ARCH is a no-op)
         but is kept distinct for labelling. *)
}

let base label defense = { label; defense; pass = None }

let protean label defense pass = { label; defense; pass = Some pass }

(* The named configurations of the evaluation (Section VIII-A5). *)
let cfg_unsafe = base "unsafe" Defense.unsafe
let cfg_stt = base "STT" Defense.stt
let cfg_spt = base "SPT" Defense.spt
let cfg_spt_sb = base "SPT-SB" Defense.spt_sb

let protean_cfg mech pass =
  let d, mname =
    match mech with
    | `Delay -> (Defense.prot_delay, "Delay")
    | `Track -> (Defense.prot_track, "Track")
  in
  let pname = Protcc.pass_name pass in
  protean (Printf.sprintf "PROTEAN-%s-%s" mname pname) d pass

(* Multi-class PROTEAN: instrument with each function's own class. *)
let protean_multiclass mech =
  let d, mname =
    match mech with
    | `Delay -> (Defense.prot_delay, "Delay")
    | `Track -> (Defense.prot_track, "Track")
  in
  { label = "PROTEAN-" ^ mname; defense = d; pass = None }

type run_spec = {
  bench : Suite.benchmark;
  dcfg : defense_cfg;
  config : Config.t;
  spec_model : Policy.spec_model;
  squash_bug : bool;
  multiclass : bool; (* instrument with per-function classes *)
}

type run_result = {
  cycles : float;
  stats : Stats.t list; (* one per core *)
  code_size_ratio : float;
  inserted_moves : int;
  policy_metrics : (string * int) list;
      (* the defense policy's named counters ([Policy.metrics]), read
         once after the run; [] unless telemetry collection is enabled *)
  flame : (string * int) list;
      (* folded flamegraph stacks ("bench;klass;func" -> simulated
         cycles) from the commit-gap profiler; [] unless flame
         collection is enabled.  Per cell, sum of weights == the cell's
         [Stats.cycles] (summed over cores). *)
  frontend : string;
      (* the shared-frontend group this cell ran under (its frontend
         key), or "" when frontend sharing is disabled / the cell
         faulted before the frontend was prepared.  Purely an
         accounting tag: the reporting layer sums reuse per group into
         [protean_frontend_reuse_total]. *)
  window : (string * int) list;
      (* the speculation-window ledger's summary counters
         ([Spec_window.counters]), summed across cores; [] unless window
         collection is enabled.  All members merge by summation, so
         shard/job merge order cannot change the totals. *)
}

(* Telemetry collection switches, process-global like the line sink:
   flipped by the CLIs (and by [--worker] re-execs, which keep the
   exporter flags in argv precisely so workers collect too).  Both
   default off, so grids without exporters simulate exactly as before —
   no profiler subscription, no policy-metrics read. *)
let collect_policy_metrics = ref false
let collect_flame = ref false
let collect_window = ref false

(* Observation hook for leaky speculation windows (mispredicted with a
   tainted transmitter under them), installed by the reporting layer to
   record one Chrome-trace span per leaking window.  Called once per
   attached ledger with a cell label and the (oldest-first) leaky
   windows; a plain callback so this module needs no tracer
   dependency. *)
let window_hook : (string -> Spec_window.window list -> unit) option ref =
  ref None

(* Observation hook for cell computations (key, wall start, wall end),
   installed by the reporting layer to record Chrome-trace spans.  A
   plain callback so this module needs no dependency on the tracer. *)
let cell_hook : (string -> float -> float -> unit) option ref = ref None

let default_fuel = 30_000_000

(* Compiled-ProtCC-binary cache: instrumentation is deterministic per
   (workload, pass), and the same instrumented binary is re-simulated
   under many defense configurations, so grids (especially parallel
   ones) share compilations instead of re-running the passes.  Guarded
   by a mutex: parallel prewarm fills run on multiple domains. *)
let protcc_cache :
    (string, Protean_isa.Program.t * float * int) Hashtbl.t =
  Hashtbl.create 64

let protcc_cache_lock = Mutex.create ()

let pass_id = function
  | Protcc.P_rand (seed, prob) -> Printf.sprintf "rand:%d:%g" seed prob
  | p -> Protcc.pass_name p

(* [ckey] identifies the source program (benchmark + core index). *)
let instrument_program ~ckey spec program =
  let compile () =
    (* --check-certs: every compile result is audited by the independent
       checker before the binary runs; a refuted certificate raises the
       structured [Certify.Cert_violation], which the cell fault paths
       report without taking down the rest of the grid.  Cache hits skip
       the re-audit (the verdict is deterministic per compile). *)
    let audited (r : Protcc.result) =
      if !Protean_protcc.Certify.enabled then
        ignore (Protean_protcc.Certify.audit_exn ~original:program r);
      (r.Protcc.program, r.Protcc.code_size_ratio, r.Protcc.inserted_moves)
    in
    match (spec.dcfg.pass, spec.multiclass) with
    | None, false -> (program, 1.0, 0)
    | None, true -> audited (Protcc.instrument program)
    | Some pass, _ -> audited (Protcc.instrument ~pass_override:pass program)
  in
  match (spec.dcfg.pass, spec.multiclass) with
  | None, false -> compile ()
  | _ ->
      let k =
        Printf.sprintf "%s|%s|%b" ckey
          (match spec.dcfg.pass with
          | Some pass -> pass_id pass
          | None -> "multiclass")
          spec.multiclass
      in
      let cached =
        Mutex.lock protcc_cache_lock;
        let c = Hashtbl.find_opt protcc_cache k in
        Mutex.unlock protcc_cache_lock;
        c
      in
      (match cached with
      | Some r -> r
      | None ->
          let r = compile () in
          Mutex.lock protcc_cache_lock;
          Hashtbl.replace protcc_cache k r;
          Mutex.unlock protcc_cache_lock;
          r)

(* ------------------------------------------------------------------ *)
(* Shared frontend                                                     *)
(* ------------------------------------------------------------------ *)

(* The defense-*independent* frontend of a cell: the built workload
   program(s), their ProtCC instrumentation, and the per-pc decode
   operand templates ([Pipeline.decode_program]).  Cells that differ
   only in defense mechanism / core model / speculation model share all
   of it — the dynamic fetch/rename *stream* cannot be shared
   bit-identically (squash timing, and hence the wrong-path fetch
   schedule, differs per defense), so the replayable trace is exactly
   the per-pc part the stream is generated from.  The record is
   immutable and domain-safe: programs are never mutated by runs (the
   ProtCC cache already shares them across cells), and the decode
   templates are read-only per construction. *)
type frontend = {
  fe_key : string;
  fe_programs : Program.t array; (* one per core *)
  fe_decode :
    ((Protean_isa.Reg.t * Protean_isa.Insn.role) array array
    * Protean_isa.Reg.t array array)
    array; (* one template pair per core, same order *)
  fe_ratio : float;
  fe_moves : int;
}

(* Escape hatch: [--no-shared-frontend] / PROTEAN_NO_SHARED_FRONTEND
   fall back to per-cell frontend construction.  The env var is how the
   CLI flag reaches [--shards] worker re-execs. *)
let share_frontend =
  ref (Sys.getenv_opt "PROTEAN_NO_SHARED_FRONTEND" = None)

(* The defense-independent prefix of {!key}: suite/name, the ProtCC
   pass actually applied (base binary when none), multiclass.  Core
   model, speculation model, squash bug and defense label are absent on
   purpose — none of them affect what the frontend produces. *)
let frontend_key spec =
  Printf.sprintf "%s/%s|%s|%b" spec.bench.Suite.suite spec.bench.Suite.name
    (match spec.dcfg.pass with
    | Some pass -> pass_id pass
    | None -> if spec.multiclass then "multiclass" else "base")
    spec.multiclass

(* Process-wide, like [protcc_cache] (and mutex-guarded for the same
   reason: parallel prewarm fills run on multiple domains). *)
let frontend_cache : (string, frontend) Hashtbl.t = Hashtbl.create 64
let frontend_cache_lock = Mutex.create ()

let build_frontend ~fe_key spec =
  let bkey =
    Printf.sprintf "%s/%s" spec.bench.Suite.suite spec.bench.Suite.name
  in
  let programs, ratio, moves =
    match spec.bench.Suite.kind with
    | Suite.Single f ->
        let program, ratio, moves =
          instrument_program ~ckey:bkey spec (f ())
        in
        ([| program |], ratio, moves)
    | Suite.Multi f ->
        let ratio = ref 1.0 and moves = ref 0 in
        let programs =
          Array.mapi
            (fun i p ->
              let ckey = Printf.sprintf "%s#%d" bkey i in
              let p', r, m = instrument_program ~ckey spec p in
              ratio := r;
              moves := m;
              p')
            (f ())
        in
        (programs, !ratio, !moves)
  in
  {
    fe_key;
    fe_programs = programs;
    fe_decode = Array.map Pipeline.decode_program programs;
    fe_ratio = ratio;
    fe_moves = moves;
  }

(* A compile fault (e.g. a refuted certificate under [--check-certs])
   propagates out uncached, exactly as the per-cell path would raise
   it — the cell fault barrier in {!compute} owns the reporting. *)
let prepare_frontend spec =
  if not !share_frontend then build_frontend ~fe_key:"" spec
  else begin
    let fe_key = frontend_key spec in
    Mutex.lock frontend_cache_lock;
    let cached = Hashtbl.find_opt frontend_cache fe_key in
    Mutex.unlock frontend_cache_lock;
    match cached with
    | Some fe -> fe
    | None ->
        let fe = build_frontend ~fe_key spec in
        Mutex.lock frontend_cache_lock;
        Hashtbl.replace frontend_cache fe_key fe;
        Mutex.unlock frontend_cache_lock;
        fe
  end

(* Fold one profiler snapshot through the program's function table into
   collapsed stacks under [root] (defense label, benchmark, optionally
   core).  The residual — cycles after the last commit — goes to a
   synthetic "(no-commit)" frame so the folded weights sum to the run's
   cycle count exactly. *)
let fold_flame ~root program (snap : Profile.snapshot) acc =
  List.iter
    (fun (pc, cyc) ->
      let frames =
        match Program.func_at program pc with
        | Some f ->
            root @ [ Program.string_of_klass f.Program.klass; f.Program.fname ]
        | None -> root @ [ "(unknown)"; Printf.sprintf "pc_%d" pc ]
      in
      Flame.add acc ~frames cyc)
    snap.Profile.snap_flame;
  Flame.add acc ~frames:(root @ [ "(no-commit)" ]) snap.Profile.snap_residual

(* Pair each core's policy (in creation order, which is core order) with
   that core's stats. *)
let core_runs policies (per_core : Pipeline.result array) =
  List.combine policies
    (Array.to_list
       (Array.map (fun (c : Pipeline.result) -> c.Pipeline.stats) per_core))

(* Telemetry collection for one run of [label], whichever switches are
   on: [attach ~root program] goes in a core's start hook and gives it a
   commit-gap profiler (flame stacks under [root]) and a window ledger;
   [finish ~cycles runs] detaches everything and returns the run's
   result from its (policy, stats) pairs in core order — policy counters
   summed across cores, folded flame stacks, summed window counters. *)
let collector label =
  let flame = if !collect_flame then Some (Flame.create ()) else None in
  let profiled = ref [] and ledgers = ref [] in
  let attach ~root program (t : Pipeline.t) =
    (match flame with
    | None -> ()
    | Some acc ->
        let sink snap = fold_flame ~root program snap acc in
        Profile.attach ~sink (Profile.create ()) t;
        profiled := t :: !profiled);
    if !collect_window then ledgers := (t, Spec_window.attach t) :: !ledgers
  in
  let finish ~cycles runs =
    List.iter Profile.detach !profiled;
    let sum f =
      List.fold_left (fun acc x -> Twindow.merge_counters acc (f x)) []
    in
    {
      cycles = float_of_int cycles;
      stats = List.map snd runs;
      code_size_ratio = nan;
      inserted_moves = 0;
      policy_metrics =
        (if !collect_policy_metrics then
           sum (fun ((p : Policy.t), st) -> p.Policy.metrics st) runs
         else []);
      flame = (match flame with None -> [] | Some acc -> Flame.to_list acc);
      frontend = "";
      window =
        sum
          (fun (t, led) ->
            Spec_window.detach t led;
            (match (!window_hook, Spec_window.leaky_windows led) with
            | Some f, (_ :: _ as leaky) -> f label leaky
            | _ -> ());
            Spec_window.counters led)
          !ledgers;
    }
  in
  (attach, finish)

let execute spec =
  let bkey =
    Printf.sprintf "%s/%s" spec.bench.Suite.suite spec.bench.Suite.name
  in
  let attach, finish = collector (spec.dcfg.label ^ "/" ^ bkey) in
  let fe = prepare_frontend spec in
  let did_not_finish () =
    failwith
      (Printf.sprintf "experiment %s/%s did not finish" spec.bench.Suite.name
         spec.dcfg.label)
  in
  let r =
    match spec.bench.Suite.kind with
    | Suite.Single _ ->
        let program = fe.fe_programs.(0) in
        let policy = spec.dcfg.defense.Defense.make () in
        let r =
          Pipeline.run ~squash_bug:spec.squash_bug ~spec_model:spec.spec_model
            ~decode:fe.fe_decode.(0) ~fuel:default_fuel
            ~on_start:(attach ~root:[ spec.dcfg.label; bkey ] program)
            spec.config policy program ~overlays:[]
        in
        let res =
          finish
            ~cycles:(Stats.measured_cycles r.Pipeline.stats)
            [ (policy, r.Pipeline.stats) ]
        in
        if not r.Pipeline.finished then did_not_finish ();
        res
    | Suite.Multi _ ->
        let programs = fe.fe_programs in
        let policies = ref [] in
        let make_policy () =
          let p = spec.dcfg.defense.Defense.make () in
          policies := p :: !policies;
          p
        in
        let on_core i =
          attach
            ~root:[ spec.dcfg.label; bkey; Printf.sprintf "core%d" i ]
            programs.(i)
        in
        let r =
          Multicore.run ~squash_bug:spec.squash_bug ~spec_model:spec.spec_model
            ~decode:fe.fe_decode ~fuel:default_fuel ~on_core spec.config
            ~make_policy programs
        in
        let res =
          finish ~cycles:r.Multicore.cycles
            (core_runs (List.rev !policies) r.Multicore.per_core)
        in
        if not r.Multicore.finished then did_not_finish ();
        res
  in
  {
    r with
    code_size_ratio = fe.fe_ratio;
    inserted_moves = fe.fe_moves;
    frontend = fe.fe_key;
  }

(* Memoized session.  [collect], when set, switches [run] into a
   discovery mode used by {!prewarm}: cache misses are recorded (keyed
   for dedup) instead of simulated, so one silenced dry run of a
   generator yields the work-list for the parallel grid fill. *)
type session = {
  cache : (string, run_result) Hashtbl.t;
  mutable log : bool;
  mutable collect : (string, run_spec) Hashtbl.t option;
}

let create_session ?(log = false) () =
  { cache = Hashtbl.create 128; log; collect = None }

let key spec =
  (* The suite qualifies the name: e.g. `mcf` exists in both the
     SPEC2017 and the ARCH-Wasm suites. *)
  Printf.sprintf "%s/%s|%s|%s|%s|%b|%b" spec.bench.Suite.suite
    spec.bench.Suite.name spec.dcfg.label spec.config.Config.name
    (Policy.spec_model_name spec.spec_model)
    spec.squash_bug spec.multiclass

(* Sentinel for a faulted run: grids keep going and the affected table
   cells read as nan instead of the whole process aborting. *)
let faulted_result =
  {
    cycles = nan;
    stats = [];
    code_size_ratio = nan;
    inserted_moves = 0;
    policy_metrics = [];
    flame = [];
    frontend = "";
    window = [];
  }

(* Diagnostic lines (fault reports, [run] cache-miss logs, [prewarm]
   progress) are emitted by parallel fill workers on several domains —
   and, under supervised execution, by several *processes*.  They all
   route through the structured logger ([Telemetry.Log]), whose single
   mutex-serialized sink keeps lines whole; shard workers retarget the
   sink at the supervisor's frame protocol so per-worker output never
   shares a raw stderr. *)
let set_line_sink = Tlog.set_sink

let log_line fmt = Printf.ksprintf (fun s -> Tlog.info ~src:"harness" "%s" s) fmt

(* One cell, with the fault barrier: a deadlocked/livelocked simulation
   fails this cell only — report the faulting configuration and let the
   grid continue with a nan cell. *)
let compute spec =
  let t0 = Unix.gettimeofday () in
  let finish r =
    (match !cell_hook with
    | Some f -> f (key spec) t0 (Unix.gettimeofday ())
    | None -> ());
    r
  in
  match execute spec with
  | r -> finish r
  | exception Pipeline.Sim_fault f ->
      Tlog.warn ~src:"harness"
        "[fault] bench=%s defense=%s core=%s spec_model=%s: %s"
        spec.bench.Suite.name spec.dcfg.label spec.config.Config.name
        (Policy.spec_model_name spec.spec_model)
        (Pipeline.fault_to_string f);
      finish faulted_result
  | exception Failure msg ->
      Tlog.warn ~src:"harness" "[fault] bench=%s defense=%s core=%s: %s"
        spec.bench.Suite.name spec.dcfg.label spec.config.Config.name msg;
      finish faulted_result

let run session spec =
  let k = key spec in
  match Hashtbl.find_opt session.cache k with
  | Some r -> r
  | None -> (
      match session.collect with
      | Some pending ->
          (* Discovery pass: record the miss, return a placeholder
             (not cached — the parallel fill supplies the real result). *)
          if not (Hashtbl.mem pending k) then Hashtbl.replace pending k spec;
          faulted_result
      | None ->
          if session.log then log_line "[run] %s" k;
          let r = compute spec in
          Hashtbl.replace session.cache k r;
          r)

let spec ?(config = Config.p_core) ?(spec_model = Policy.Atcommit)
    ?(squash_bug = false) ?(multiclass = false) bench dcfg =
  { bench; dcfg; config; spec_model; squash_bug; multiclass }

(* Normalized runtime of [dcfg] on [bench] against the unsafe baseline on
   the base binary, same core configuration. *)
let normalized session ?config ?spec_model ?multiclass bench dcfg =
  let r = run session (spec ?config ?spec_model ?multiclass bench dcfg) in
  let u = run session (spec ?config ?spec_model bench cfg_unsafe) in
  r.cycles /. u.cycles

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* ProtCC static overhead (Section IX-A2): code size ratio and the
   runtime ratio of the instrumented binary on *unsafe* hardware. *)
let protcc_overhead session bench pass =
  let dcfg = { label = "unsafe+" ^ Protcc.pass_name pass; defense = Defense.unsafe; pass = Some pass } in
  let r = run session (spec bench dcfg) in
  let u = run session (spec bench cfg_unsafe) in
  (r.code_size_ratio, r.cycles /. u.cycles, r.inserted_moves)

(* ------------------------------------------------------------------ *)
(* Parallel grid prewarm                                               *)
(* ------------------------------------------------------------------ *)

(* Run [gen] (a table/figure generator driving [run] through [session])
   with all its simulations executed on [jobs] domains, producing output
   byte-identical to the serial run.  Three phases:

   1. discovery — [gen] runs once with [Format.std_formatter] silenced
      and the session in collect mode, so every cache miss is recorded
      (deduplicated, no simulation happens);
   2. fill — the recorded cells, sorted by key for a deterministic task
      order, run under {!Parallel.map} and land in the session cache;
   3. replay — [gen] runs again serially; every [run] now hits the warm
      cache, so the printed output is exactly the serial output.

   Correctness rests on generators being output-only consumers: the set
   of cells they request doesn't depend on cell results, and cells are
   pure functions of their spec.  [jobs <= 1] just runs [gen]. *)
(* Discovery (phase 1): run [gen] silenced with the session in collect
   mode and return the cache misses sorted by key — a deterministic cell
   list, so independent processes that run the same discovery enumerate
   the same cells at the same indices (the supervised-execution layer
   depends on this). *)
let discover session (gen : unit -> unit) =
  let pending = Hashtbl.create 64 in
  let saved_log = session.log in
  let ppf = Format.std_formatter in
  let saved_out = Format.pp_get_formatter_out_functions ppf () in
  Format.pp_print_flush ppf ();
  session.collect <- Some pending;
  session.log <- false;
  Format.pp_set_formatter_out_functions ppf
    {
      Format.out_string = (fun _ _ _ -> ());
      out_flush = (fun () -> ());
      out_newline = (fun () -> ());
      out_spaces = (fun _ -> ());
      out_indent = (fun _ -> ());
    };
  Fun.protect
    ~finally:(fun () ->
      Format.pp_print_flush ppf ();
      Format.pp_set_formatter_out_functions ppf saved_out;
      session.collect <- None;
      session.log <- saved_log)
    gen;
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun k s acc -> (k, s) :: acc) pending [])

(* Install externally computed results (phase 2's output) so the replay
   run hits a warm cache. *)
let install session results =
  List.iter (fun (k, r) -> Hashtbl.replace session.cache k r) results

(* Batch the (key-sorted) cell list by frontend group, preserving the
   order of first appearance.  Each group is the parallel-fill
   scheduling unit: its cells run sequentially on one domain, so the
   group's frontend is prepared exactly once instead of being raced by
   every cell.  With sharing disabled every cell is its own group —
   the pre-sharing per-cell schedule. *)
let group_cells cells =
  if not !share_frontend then List.map (fun c -> [ c ]) cells
  else begin
    let tbl = Hashtbl.create 32 in
    let order = ref [] in
    List.iter
      (fun ((_, s) as cell) ->
        let fk = frontend_key s in
        match Hashtbl.find_opt tbl fk with
        | Some group -> group := cell :: !group
        | None ->
            Hashtbl.replace tbl fk (ref [ cell ]);
            order := fk :: !order)
      cells;
    List.rev_map (fun fk -> List.rev !(Hashtbl.find tbl fk)) !order
  end

let prewarm ?(jobs = Parallel.default_jobs ()) session (gen : unit -> unit) =
  if jobs <= 1 then gen ()
  else begin
    let cells = discover session gen in
    let groups = group_cells cells in
    if session.log then
      log_line "[prewarm] %d cells in %d frontend groups on %d domains"
        (List.length cells) (List.length groups) jobs;
    let tasks =
      Array.of_list
        (List.map
           (fun group () -> List.map (fun (k, s) -> (k, compute s)) group)
           groups)
    in
    let results = Parallel.map ~jobs tasks in
    install session (List.concat (Array.to_list results));
    gen ()
  end
