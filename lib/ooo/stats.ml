(* Execution statistics gathered by the pipeline, used for the performance
   evaluation (normalized runtime = cycles / unsafe-baseline cycles) and
   for the diagnostic breakdowns of Section IX. *)

type t = {
  mutable cycles : int;
  mutable marker_cycle : int;
      (* cycle at which the measurement marker committed (0 = none):
         benchmarks store to a magic address after their warmup phase,
         mirroring the paper's simpoint warmup methodology *)
  mutable committed : int;
  mutable fetched : int;
  mutable squashes : int;
  mutable squashed_insns : int;
  mutable branch_mispredicts : int;
  mutable machine_clears : int;
  mutable mem_order_violations : int;
  mutable l1d_accesses : int;
  mutable l1d_misses : int;
  mutable transmitter_stall_cycles : int;
  mutable wakeup_delay_cycles : int;
  mutable resolution_delay_cycles : int;
  mutable access_pred_lookups : int;
  mutable access_pred_mispredicts : int;
  mutable access_pred_false_negatives : int;
  mutable loads_executed : int;
  mutable loads_protected_mem : int;
  (* Structural-port model counters (all zero when [Config.ports] is
     [None]).  [port_busy] is grown on demand to the highest port seen;
     protection stalls (the three *_delay/_stall counters above) and
     these structural stalls together attribute every denied cycle. *)
  mutable port_busy : int array; (* per port: cycles an issue was bound *)
  mutable port_structural_stall_cycles : int;
      (* ready entry found no compatible free port (entry-cycles) *)
  mutable wb_queue_stall_cycles : int;
      (* completion deferred by the CDB broadcast budget (entry-cycles) *)
  mutable skipped_cycles : int;
      (* quiet cycles advanced in bulk by event-driven skip-ahead;
         always <= [cycles], and 0 when skip-ahead is disabled — every
         other counter is unaffected by skipping (a skippable cycle by
         definition changes no counter) *)
}

let create () =
  {
    cycles = 0;
    marker_cycle = 0;
    committed = 0;
    fetched = 0;
    squashes = 0;
    squashed_insns = 0;
    branch_mispredicts = 0;
    machine_clears = 0;
    mem_order_violations = 0;
    l1d_accesses = 0;
    l1d_misses = 0;
    transmitter_stall_cycles = 0;
    wakeup_delay_cycles = 0;
    resolution_delay_cycles = 0;
    access_pred_lookups = 0;
    access_pred_mispredicts = 0;
    access_pred_false_negatives = 0;
    loads_executed = 0;
    loads_protected_mem = 0;
    port_busy = [||];
    port_structural_stall_cycles = 0;
    wb_queue_stall_cycles = 0;
    skipped_cycles = 0;
  }

(* ------------------------------------------------------------------ *)
(* The counter schema                                                  *)
(* ------------------------------------------------------------------ *)

(* Every surface that carries counters out of a run derives from the
   rows below: the shard frame and checkpoint codec, the metric
   families, the width sweep's stall shares.  A new counter is one
   record field plus one row.  A row reads and writes its record field
   (the hot path keeps its direct [st.x <- ...] increments) and lists
   the metric families it feeds, each with extra labels and help. *)

type family = {
  f_name : string;
  f_labels : (string * string) list;
  f_help : string;
}

type field = {
  name : string; (* its key in shard frames and checkpoints *)
  get : t -> int;
  set : t -> int -> unit;
  families : family list; (* [] = bookkeeping, exported nowhere *)
}

let fam ?(labels = []) f_name f_help = { f_name; f_labels = labels; f_help }

(* The stall families split denied entry-cycles by [kind] of cause. *)
let stall family kind help = fam ~labels:[ ("kind", kind) ] family help

let fields =
  let row name get set families = { name; get; set; families } in
  [
    row "cycles" (fun s -> s.cycles) (fun s v -> s.cycles <- v)
      [ fam "protean_pipeline_cycles_total" "simulated cycles" ];
    row "marker_cycle" (fun s -> s.marker_cycle)
      (fun s v -> s.marker_cycle <- v) [];
    row "committed" (fun s -> s.committed) (fun s v -> s.committed <- v)
      [ fam "protean_pipeline_committed_total" "instructions committed" ];
    row "fetched" (fun s -> s.fetched) (fun s v -> s.fetched <- v)
      [ fam "protean_pipeline_fetched_total"
          "instructions fetched (wrong path included)" ];
    row "squashes" (fun s -> s.squashes) (fun s v -> s.squashes <- v)
      [ fam "protean_pipeline_squashes_total" "pipeline squashes" ];
    row "squashed_insns" (fun s -> s.squashed_insns)
      (fun s v -> s.squashed_insns <- v)
      [ fam "protean_pipeline_squashed_insns_total"
          "instructions flushed by squashes" ];
    row "branch_mispredicts" (fun s -> s.branch_mispredicts)
      (fun s v -> s.branch_mispredicts <- v)
      [ fam "protean_pipeline_branch_mispredicts_total"
          "branch mispredictions" ];
    row "machine_clears" (fun s -> s.machine_clears)
      (fun s v -> s.machine_clears <- v)
      [ fam "protean_pipeline_machine_clears_total"
          "machine clears (faulting commits)" ];
    row "mem_order_violations" (fun s -> s.mem_order_violations)
      (fun s v -> s.mem_order_violations <- v)
      [ fam "protean_pipeline_mem_order_violations_total"
          "memory order violations" ];
    row "l1d_accesses" (fun s -> s.l1d_accesses)
      (fun s v -> s.l1d_accesses <- v)
      [ fam "protean_cache_l1d_accesses_total" "L1D accesses" ];
    row "l1d_misses" (fun s -> s.l1d_misses) (fun s v -> s.l1d_misses <- v)
      [ fam "protean_cache_l1d_misses_total" "L1D misses" ];
    row "transmitter_stall_cycles" (fun s -> s.transmitter_stall_cycles)
      (fun s v -> s.transmitter_stall_cycles <- v)
      [ fam "protean_defense_transmitter_stall_cycles_total"
          "cycles ready transmitters were stalled by the policy";
        stall "protean_stall_protection_cycles_total" "transmitter"
          "entry-cycles ready transmitters were stalled by the policy" ];
    row "wakeup_delay_cycles" (fun s -> s.wakeup_delay_cycles)
      (fun s v -> s.wakeup_delay_cycles <- v)
      [ fam "protean_defense_wakeup_delay_cycles_total"
          "cycles completed results were held back from dependents";
        stall "protean_stall_protection_cycles_total" "wakeup"
          "entry-cycles completed results were held back from dependents" ];
    row "resolution_delay_cycles" (fun s -> s.resolution_delay_cycles)
      (fun s v -> s.resolution_delay_cycles <- v)
      [ fam "protean_defense_resolution_delay_cycles_total"
          "cycles executed branches were denied resolution";
        stall "protean_stall_protection_cycles_total" "resolution"
          "entry-cycles executed branches were denied resolution" ];
    row "access_pred_lookups" (fun s -> s.access_pred_lookups)
      (fun s v -> s.access_pred_lookups <- v)
      [ fam "protean_predictor_lookups_total" "access-predictor lookups" ];
    row "access_pred_mispredicts" (fun s -> s.access_pred_mispredicts)
      (fun s v -> s.access_pred_mispredicts <- v)
      [ fam "protean_predictor_mispredicts_total"
          "access-predictor mispredictions among retired loads" ];
    row "access_pred_false_negatives" (fun s -> s.access_pred_false_negatives)
      (fun s v -> s.access_pred_false_negatives <- v)
      [ fam "protean_predictor_false_negatives_total"
          "access-predictor false negatives (ProtDelay fallbacks)" ];
    row "loads_executed" (fun s -> s.loads_executed)
      (fun s v -> s.loads_executed <- v)
      [ fam "protean_pipeline_loads_executed_total" "loads executed" ];
    row "loads_protected_mem" (fun s -> s.loads_protected_mem)
      (fun s v -> s.loads_protected_mem <- v)
      [ fam "protean_pipeline_loads_protected_mem_total"
          "loads that read protected memory" ];
    row "port_structural_stall_cycles" (fun s -> s.port_structural_stall_cycles)
      (fun s v -> s.port_structural_stall_cycles <- v)
      [ stall "protean_stall_structural_cycles_total" "port"
          "entry-cycles ready instructions found no compatible free port" ];
    row "wb_queue_stall_cycles" (fun s -> s.wb_queue_stall_cycles)
      (fun s v -> s.wb_queue_stall_cycles <- v)
      [ stall "protean_stall_structural_cycles_total" "writeback"
          "entry-cycles completions were deferred by the CDB budget" ];
    row "skipped_cycles" (fun s -> s.skipped_cycles)
      (fun s v -> s.skipped_cycles <- v)
      [ fam "protean_cycles_skipped_total"
          "idle cycles the event-driven scheduler skipped instead of \
           spinning (a subset of protean_pipeline_cycles_total)" ];
  ]

(* The one vector counter: [port_busy], one [port_family] sample per
   port, labelled [port_label]. *)
let port_busy_name = "port_busy"
let port_label = "port"

let port_family =
  fam "protean_port_busy_total" "issues bound to each execution port"

let get_port_busy s = s.port_busy
let set_port_busy s v = s.port_busy <- v

(* Sum of the counters that feed [family] (e.g. every protection stall),
   so a report's stall share agrees with the exported families. *)
let family_total family s =
  List.fold_left
    (fun acc f ->
      if List.exists (fun m -> m.f_name = family) f.families then acc + f.get s
      else acc)
    0 fields

(* Count an issue bound to [port], growing the per-port array on first
   sight of a new port (at most once per port per run). *)
let bump_port_busy t port =
  if Array.length t.port_busy <= port then begin
    let grown = Array.make (port + 1) 0 in
    Array.blit t.port_busy 0 grown 0 (Array.length t.port_busy);
    t.port_busy <- grown
  end;
  t.port_busy.(port) <- t.port_busy.(port) + 1

(* Cycles after the measurement marker (whole run when no marker). *)
let measured_cycles t = t.cycles - t.marker_cycle

let ipc t = if t.cycles = 0 then 0.0 else float_of_int t.committed /. float_of_int t.cycles

let pp fmt t =
  Format.fprintf fmt
    "cycles=%d committed=%d ipc=%.3f squashes=%d mispredicts=%d mclears=%d \
     mem-order=%d l1d=%d/%d xmit-stall=%d wakeup-delay=%d"
    t.cycles t.committed (ipc t) t.squashes t.branch_mispredicts
    t.machine_clears t.mem_order_violations t.l1d_misses t.l1d_accesses
    t.transmitter_stall_cycles t.wakeup_delay_cycles
