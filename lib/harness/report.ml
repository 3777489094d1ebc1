(* The telemetry reporting layer: turns a memoized experiment session
   (plus the supervisor's lifecycle bus and wall-clock cell spans) into
   the three exporter formats — Prometheus/JSON metrics, Chrome
   trace-event JSON, and collapsed-stack flamegraphs.

   Split of responsibilities:
   - *deterministic* metrics (pipeline counters from [Stats.t], defense
     policy counters, flame totals) derive purely from the session
     cache, so serial / [-j N] / [--shards N] runs render byte-identical
     metric families;
   - *runtime* metrics (the [protean_supervisor_*] families) and the
     trace record wall-clock process topology and are excluded from
     determinism comparisons (they describe *this* run's execution, not
     the simulated machine).

   Collection is free when no exporter asked for it: [enable] flips the
   experiment-layer switches, and without it no profiler subscribes, no
   policy counters are read, and no span is recorded. *)

module Metrics = Protean_telemetry.Metrics
module Trace = Protean_telemetry.Trace
module Flame = Protean_telemetry.Flame
module Twindow = Protean_telemetry.Window
module Stats = Protean_ooo.Stats
module Spec_window = Protean_ooo.Spec_window
module E = Experiment

type config = {
  metrics_out : string option;
  trace_out : string option;
  flamegraph_out : string option;
  attr_out : string option;
      (* per-cell speculation-window summary + over-protection report *)
}

let no_exports =
  {
    metrics_out = None;
    trace_out = None;
    flamegraph_out = None;
    attr_out = None;
  }

let wanted c =
  c.metrics_out <> None || c.trace_out <> None || c.flamegraph_out <> None
  || c.attr_out <> None

(* Runtime registry: supervisor lifecycle counters, filled by the bus
   observer as the run executes. *)
let runtime = Metrics.create ()
let tracer : Trace.t option ref = ref None

(* ------------------------------------------------------------------ *)
(* Build/host metadata                                                 *)
(* ------------------------------------------------------------------ *)

(* Self-describing runs: host parallelism, toolchain, source revision
   and any active escape-hatch env vars, so a metrics snapshot (or a
   bench JSON) records the environment that produced it — the ROADMAP's
   1-core-host bench caveat made explicit. *)

let escape_hatches =
  [
    "PROTEAN_NO_SKIP_AHEAD";
    "PROTEAN_NO_SHARED_FRONTEND";
    "PROTEAN_PARANOID_SCHED";
    "PROTEAN_NET_FAULT";
    "PROTEAN_NO_SPAWN";
  ]

let hatch_active v =
  match Sys.getenv_opt v with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* Source revision from .git/HEAD (one level of ref indirection), no
   subprocess; "unknown" outside a checkout. *)
let git_rev () =
  let first_line path =
    match open_in path with
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> match input_line ic with l -> Some l | exception _ -> None)
    | exception _ -> None
  in
  let short s = String.sub s 0 (min 12 (String.length s)) in
  match first_line (Filename.concat ".git" "HEAD") with
  | Some line when String.length line > 5 && String.sub line 0 5 = "ref: " ->
      let r = String.sub line 5 (String.length line - 5) in
      (match first_line (Filename.concat ".git" (String.trim r)) with
      | Some rev -> short (String.trim rev)
      | None -> "unknown")
  | Some rev when String.trim rev <> "" -> short (String.trim rev)
  | _ -> "unknown"

let build_info_labels () =
  [
    ("cores", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("rev", git_rev ());
    ("hatches", String.concat "," (List.filter hatch_active escape_hatches));
  ]

(* Registered once into the runtime registry, which merges into every
   metrics output path (files, /metrics scrapes, worker or parent). *)
let () =
  Metrics.set
    (Metrics.gauge runtime
       ~help:"build/host metadata (constant 1; the labels are the data)"
       ~labels:(build_info_labels ()) "protean_build_info")
    1

(* Flip the collection switches for this process.  Workers call this
   too ([--worker] keeps the exporter flags in argv) so cells computed
   in shard processes carry their telemetry home over the frame
   protocol — but only the parent ever opens the tracer or writes
   files. *)
let enable ?(worker = false) c =
  if c.metrics_out <> None then E.collect_policy_metrics := true;
  if c.flamegraph_out <> None then E.collect_flame := true;
  if c.metrics_out <> None || c.attr_out <> None then E.collect_window := true;
  if (not worker) && wanted c then begin
    let tr = Trace.create () in
    Trace.name_process tr ~pid:0 "protean";
    tracer := Some tr;
    if c.trace_out <> None then begin
      E.cell_hook :=
        Some (fun key t0 t1 -> Trace.span tr ~cat:"cell" ~t0 ~t1 key);
      (* One span per *leaking* speculation window, on a simulated-time
         track (one cycle = one microsecond, its own pid). *)
      Trace.name_process tr ~pid:1 "simulated-windows";
      E.window_hook :=
        Some
          (fun label ws ->
            List.iter
              (fun (w : Spec_window.window) ->
                Trace.span_us tr ~cat:"window" ~pid:1
                  ~args:
                    [
                      ("trigger_pc", string_of_int w.Spec_window.w_pc);
                      ( "family",
                        Spec_window.trigger_family w.Spec_window.w_trigger );
                      ( "tainted",
                        string_of_int w.Spec_window.w_tainted );
                      ( "interventions",
                        string_of_int w.Spec_window.w_interventions );
                    ]
                  ~ts_us:w.Spec_window.w_opened
                  ~dur_us:(w.Spec_window.w_closed - w.Spec_window.w_opened)
                  (Printf.sprintf "%s window#%d" label w.Spec_window.w_id))
              ws)
    end
  end

(* --check-certs: flip the independent checker's switch and feed its
   per-certificate observations into protean_cert_* counters.  These
   live in the *runtime* registry, not the deterministic session one:
   the ProtCC compile cache is per-process, so audit counts vary with
   the -j/--shards process topology even though the verdicts do not. *)
let enable_cert_audit () =
  Protean_protcc.Certify.enabled := true;
  Protean_protcc.Certify.on_audit :=
    fun ~style ~claims ~violations ->
      let c name help =
        Metrics.counter runtime ~help
          ~labels:[ ("pass", style) ]
          ("protean_cert_" ^ name)
      in
      Metrics.inc (c "checked_total" "protection certificates audited");
      Metrics.inc ~n:claims
        (c "claims_total" "individual certificate claims audited");
      Metrics.inc ~n:violations
        (c "violations_total" "certificate claims refuted by the checker")

(* ------------------------------------------------------------------ *)
(* Deterministic metrics from the session cache                        *)
(* ------------------------------------------------------------------ *)

(* Cell keys are "suite/name|defense|config|spec_model|squash_bug|mc";
   the first three become the per-cell label set. *)
let labels_of_key key =
  match String.split_on_char '|' key with
  | bench :: defense :: core :: _ ->
      [ ("bench", bench); ("core", core); ("defense", defense) ]
  | _ -> [ ("cell", key) ]

(* Ledger counter names → metric families.  "windows_opened" →
   protean_window_opened_total, "window_cycles" →
   protean_window_cycles_total, "transmitters" →
   protean_window_transmitters_total: strip the ledger's own
   windows_/window_ prefix, then re-root under the one family prefix. *)
let window_family name =
  let strip p s =
    let lp = String.length p in
    if String.length s > lp && String.sub s 0 lp = p then
      Some (String.sub s lp (String.length s - lp))
    else None
  in
  let core =
    match strip "windows_" name with
    | Some s -> s
    | None -> ( match strip "window_" name with Some s -> s | None -> name)
  in
  "protean_window_" ^ core ^ "_total"

(* Per-cell measured-cycle histogram bounds: decades from 1k to 10M
   (cells beyond the fuel limit cannot exist). *)
let cell_cycle_buckets =
  [| 1_000; 10_000; 100_000; 1_000_000; 10_000_000 |]

let flame_total fl = List.fold_left (fun acc (_, n) -> acc + n) 0 fl

(* Build the deterministic registry from every cached cell.  Hashtable
   iteration order varies with insertion history (serial vs parallel
   fill), but every fold below is a commutative integer sum and
   snapshots sort by (family, labels), so the rendered bytes do not. *)
let of_session (session : E.session) =
  let reg = Metrics.create () in
  let cells =
    Metrics.counter reg ~help:"experiment cells computed"
      "protean_harness_cells_total"
  in
  let faults =
    Metrics.counter reg ~help:"cells resolved to the faulted sentinel"
      "protean_harness_cell_faults_total"
  in
  Hashtbl.iter
    (fun key (r : E.run_result) ->
      let labels = labels_of_key key in
      Metrics.inc cells;
      if Float.is_nan r.E.cycles then Metrics.inc faults
      else begin
        let h =
          Metrics.histogram reg
            ~help:"measured cycles per experiment cell"
            ~labels:[ ("defense", List.assoc "defense" labels) ]
            ~buckets:cell_cycle_buckets "protean_harness_cell_cycles"
        in
        Metrics.observe h (int_of_float r.E.cycles)
      end;
      (* Pipeline counters: each [Stats.fields] row feeds its families,
         and the per-port array one series per port.  Zero values emit
         nothing, so families a cell never touched (ports, stalls) stay
         out of its export. *)
      let export (fm : Stats.family) extra v =
        if v <> 0 then
          Metrics.inc ~n:v
            (Metrics.counter reg ~help:fm.Stats.f_help
               ~labels:(extra @ fm.Stats.f_labels @ labels)
               fm.Stats.f_name)
      in
      List.iter
        (fun (st : Stats.t) ->
          List.iter
            (fun (f : Stats.field) ->
              let v = f.Stats.get st in
              List.iter (fun fm -> export fm [] v) f.Stats.families)
            Stats.fields;
          Array.iteri
            (fun port v ->
              export Stats.port_family
                [ (Stats.port_label, string_of_int port) ]
                v)
            (Stats.get_port_busy st))
        r.E.stats;
      List.iter
        (fun (name, v) ->
          let m =
            Metrics.counter reg ~help:"defense policy-local counter" ~labels
              ("protean_defense_" ^ name ^ "_total")
          in
          Metrics.inc ~n:v m)
        r.E.policy_metrics;
      List.iter
        (fun (name, v) ->
          if v <> 0 then
            Metrics.inc ~n:v
              (Metrics.counter reg
                 ~help:"speculation-window ledger counter" ~labels
                 (window_family name)))
        r.E.window;
      match r.E.flame with
      | [] -> ()
      | fl ->
          let m =
            Metrics.counter reg
              ~help:
                "cycles attributed by the commit-gap flame profiler \
                 (equals protean_pipeline_cycles_total when flame export \
                 is on)"
              ~labels "protean_flame_cycles_total"
          in
          Metrics.inc ~n:(flame_total fl) m)
    session.E.cache;
  (* Shared-frontend accounting: every cell tagged with a frontend
     group key shared that group's one workload build + instrumentation
     + decode; reuse per group = group size - 1 (the first cell paid
     for the build).  Zero groups — sharing disabled, or no cells —
     emit no family at all, keeping sharing-off snapshots byte-stable
     with pre-sharing ones. *)
  let fe_groups = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ (r : E.run_result) ->
      if r.E.frontend <> "" then
        Hashtbl.replace fe_groups r.E.frontend
          (1
          + Option.value ~default:0 (Hashtbl.find_opt fe_groups r.E.frontend)))
    session.E.cache;
  Hashtbl.iter
    (fun fe n ->
      if n > 1 then
        Metrics.inc ~n:(n - 1)
          (Metrics.counter reg
             ~help:"cells that reused a shared frontend build"
             ~labels:[ ("frontend", fe) ]
             "protean_frontend_reuse_total"))
    fe_groups;
  reg

let flame_of_session (session : E.session) =
  let acc = Flame.create () in
  Hashtbl.iter
    (fun _ (r : E.run_result) ->
      List.iter (fun (stack, n) -> Flame.add_stack acc stack n) r.E.flame)
    session.E.cache;
  acc

(* ------------------------------------------------------------------ *)
(* Supervisor lifecycle observer                                       *)
(* ------------------------------------------------------------------ *)

(* Subscribe the returned handler to a supervisor bus: lifecycle events
   become [protean_supervisor_*] counters in the runtime registry, plus
   trace instants when a tracer is open. *)
let supervisor_observer () =
  let c name help =
    Metrics.counter runtime ~help ("protean_supervisor_" ^ name)
  in
  let spawns = c "spawns_total" "worker processes spawned" in
  let heartbeats = c "heartbeats_total" "worker heartbeat frames" in
  let cells_done = c "cells_done_total" "cells completed by workers" in
  let cell_faults = c "cell_faults_total" "structured in-worker cell faults" in
  let kills = c "kills_total" "workers killed (deadline or corruption)" in
  let exits = c "worker_exits_total" "worker processes reaped" in
  let retries = c "retries_total" "shard retry attempts" in
  let bisects = c "bisects_total" "shard bisections" in
  let poisoned = c "poisoned_cells_total" "cells poisoned after retries" in
  let checkpoint =
    c "checkpoint_cells_total" "cells resumed from checkpoints"
  in
  let fallbacks = c "fallbacks_total" "in-process fallbacks" in
  let merged = c "merged_cells_total" "cells in the final merge" in
  let connects = c "workers_connected_total" "dial-in workers accepted" in
  let rejects = c "workers_rejected_total" "dial-in handshakes refused" in
  let leases = c "leases_granted_total" "work batches leased to workers" in
  let disconnects =
    c "workers_disconnected_total" "dial-in workers lost mid-campaign"
  in
  fun (ev : Supervisor.event) ->
    (match !tracer with
    | Some tr -> (
        match ev with
        | Supervisor.Heartbeat _ | Supervisor.Cell_done _
        | Supervisor.Worker_log _ | Supervisor.Worker_stderr _ ->
            () (* too chatty for instants; counted below *)
        | ev ->
            Trace.instant tr ~cat:"supervisor"
              (Supervisor.event_to_string ev))
    | None -> ());
    match ev with
    | Supervisor.Spawn _ -> Metrics.inc spawns
    | Supervisor.Heartbeat _ -> Metrics.inc heartbeats
    | Supervisor.Cell_done _ -> Metrics.inc cells_done
    | Supervisor.Cell_fault _ -> Metrics.inc cell_faults
    | Supervisor.Kill _ -> Metrics.inc kills
    | Supervisor.Worker_exit _ -> Metrics.inc exits
    | Supervisor.Retry _ -> Metrics.inc retries
    | Supervisor.Bisect _ -> Metrics.inc bisects
    | Supervisor.Poisoned _ -> Metrics.inc poisoned
    | Supervisor.Checkpoint_loaded { cells } ->
        Metrics.inc ~n:cells checkpoint
    | Supervisor.Fallback _ -> Metrics.inc fallbacks
    | Supervisor.Merged { cells; _ } -> Metrics.inc ~n:cells merged
    | Supervisor.Worker_connected _ -> Metrics.inc connects
    | Supervisor.Worker_rejected _ -> Metrics.inc rejects
    | Supervisor.Lease_granted _ -> Metrics.inc leases
    | Supervisor.Worker_disconnected _ -> Metrics.inc disconnects
    | Supervisor.Listening _ | Supervisor.Worker_log _
    | Supervisor.Worker_stderr _ ->
        ()

(* ------------------------------------------------------------------ *)
(* Writers                                                             *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* Deterministic session metrics merged with the runtime families. *)
let final_snapshot session =
  Metrics.merge
    (Metrics.snapshot (of_session session))
    (Metrics.snapshot runtime)

(* Scrape body for a live /metrics HTTP listener: rendered per request,
   so mid-campaign scrapes see the runtime families (supervisor
   lifecycle counters) the observer is filling in real time. *)
let live_metrics session () = Metrics.to_prometheus (final_snapshot session)

(* Bind the live /metrics HTTP listener for [--metrics-listen],
   degrading gracefully when the address is unavailable (port already
   bound, unresolvable interface): a structured warning and [None], so
   the run continues without live metrics instead of aborting — losing
   a scrape endpoint is never worth losing the campaign. *)
let listen_metrics ~src addr body =
  match Protean_telemetry.Http_listener.create ~addr body with
  | h ->
      Protean_telemetry.Log.info ~src "serving /metrics on port %d"
        (Protean_telemetry.Http_listener.port h);
      Some h
  | exception Unix.Unix_error (err, fn, _) ->
      Protean_telemetry.Log.warn ~src
        "--metrics-listen %s unavailable (%s in %s); continuing without \
         live metrics"
        addr (Unix.error_message err) fn;
      None
  | exception Failure reason ->
      Protean_telemetry.Log.warn ~src
        "--metrics-listen %s unavailable (%s); continuing without live \
         metrics"
        addr reason;
      None

(* --attr-out: the per-cell speculation-window report.  One JSON object
   per cell that carried window counters (sorted by key — deterministic
   across -j/--shards), each with its over-protection ratio, plus
   campaign-wide totals; the rendered text summary goes to stdout so an
   interactive run shows the audit without opening the file. *)
let attr_report session =
  let cells =
    Hashtbl.fold
      (fun key (r : E.run_result) acc ->
        if r.E.window = [] then acc else (key, r.E.window) :: acc)
      session.E.cache []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let totals =
    List.fold_left
      (fun acc (_, w) -> Twindow.merge_counters acc w)
      [] cells
  in
  (cells, totals)

let op_json = function
  | Some r -> Printf.sprintf "%.4f" r
  | None -> "null"

let attr_json cells totals =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"cells\": [\n";
  List.iteri
    (fun i (key, w) ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"cell\": \"%s\", \"window\": %s, \"over_protection\": %s}"
           (String.escaped key)
           (Twindow.counters_to_json w)
           (op_json (Twindow.over_protection w))))
    cells;
  Buffer.add_string b
    (Printf.sprintf
       "\n  ],\n  \"totals\": %s,\n  \"over_protection\": %s\n}\n"
       (Twindow.counters_to_json totals)
       (op_json (Twindow.over_protection totals)));
  Buffer.contents b

let render_attr cells totals =
  let b = Buffer.create 1024 in
  Buffer.add_string b "speculation-window audit\n";
  List.iter
    (fun (key, w) ->
      let op =
        match Twindow.over_protection w with
        | Some r -> Printf.sprintf "over-protection %.2f" r
        | None -> "no interventions"
      in
      Buffer.add_string b
        (Printf.sprintf "  %-48s leaky %d/%d  %s\n" key
           (Twindow.counter "windows_leaky" w)
           (Twindow.counter "windows_opened" w)
           op))
    cells;
  (match Twindow.over_protection totals with
  | Some r ->
      Buffer.add_string b
        (Printf.sprintf "  total over-protection ratio: %.4f\n" r)
  | None -> Buffer.add_string b "  total: no interventions recorded\n");
  Buffer.contents b

(* Write whatever [c] asked for.  [.json] metric paths get the JSON
   exporter, anything else Prometheus text. *)
let write_outputs c session =
  (match c.metrics_out with
  | Some path ->
      let snap = final_snapshot session in
      if Filename.check_suffix path ".json" then
        write_file path (Metrics.to_json snap)
      else write_file path (Metrics.to_prometheus snap)
  | None -> ());
  (match c.trace_out with
  | Some path -> (
      match !tracer with
      | Some tr -> write_file path (Trace.to_chrome_json tr)
      | None -> ())
  | None -> ());
  (match c.flamegraph_out with
  | Some path ->
      write_file path (Flame.to_folded (flame_of_session session))
  | None -> ());
  match c.attr_out with
  | Some path ->
      let cells, totals = attr_report session in
      write_file path (attr_json cells totals);
      print_string (render_attr cells totals)
  | None -> ()
