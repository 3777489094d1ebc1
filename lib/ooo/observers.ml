(* The default hook-bus subscribers, installed by [Pipeline.create]:

   - "policy": delivers the Policy notification hooks ([on_rename],
     [on_load_executed], [on_commit]).  The policy's *gates*
     ([may_forward], [may_execute_transmitter], [may_resolve]) stay
     synchronous queries called by the stage modules — a gate returns a
     decision, which an event cannot.  [Fault_inject] participates here
     too: it wraps the policy record, so its perturbed notification
     hooks are what this subscriber delivers.
   - "trace": the hardware observer trace ([Hw_trace]) — cache/TLB
     fills and evictions, squashes, machine clears, divider busy,
     per-stage commit timing.  Installed only when tracing is enabled:
     it is the sole claimant of the expensive kinds ([k_mem_path],
     [k_div_busy]), so untraced runs never pay for them.
   - "stats": the [Stats] counters.  Not the wakeup and execution
     denial counts: the issue scan adds those itself (and skip-ahead in
     bulk), so a denial needs no event unless some other subscriber
     wants it — which is what lets a stall made only of denials be
     quiet.

   Each subscriber declares the event kinds it handles, which feeds the
   bus's interest mask: an emit site whose kind has no subscriber costs
   one load and a bit test.  The kind lists below must stay a superset
   of each handler's match arms — a kind missing here silently drops
   events for that handler.

   Registration order is policy, trace, stats; subscribers only touch
   state they own, so the order is not observable (policies write only
   their own counters), but it is fixed to keep runs reproducible. *)

open Protean_isa
module S = Pipeline_state

let policy_kinds = Hooks.[ k_rename; k_load_executed; k_commit ]

let policy_handler (t : S.t) (ev : Hooks.event) =
  match ev with
  | Hooks.On_rename e -> t.S.policy.Policy.on_rename (S.api t) e
  | Hooks.On_load_executed e -> t.S.policy.Policy.on_load_executed (S.api t) e
  | Hooks.On_commit e -> t.S.policy.Policy.on_commit (S.api t) e
  | _ -> ()

let trace_kinds =
  Hooks.[ k_mem_access; k_mem_path; k_div_busy; k_squash; k_machine_clear; k_commit ]

let trace_handler (t : S.t) (ev : Hooks.event) =
  let record = Hw_trace.record t.S.trace in
  match ev with
  | Hooks.On_mem_access { path; _ } ->
      List.iter
        (function
          | Hooks.M_tlb_fill page -> record (Hw_trace.E_tlb_fill page)
          | Hooks.M_fill { level; set; tag } ->
              record (Hw_trace.E_cache_fill { level; set; tag })
          | Hooks.M_evict { level; line } ->
              record (Hw_trace.E_cache_evict { level; line }))
        path
  | Hooks.On_div_busy { latency } ->
      record (Hw_trace.E_div_busy { cycle = t.S.cycle; latency })
  | Hooks.On_squash { flushed; _ } ->
      record (Hw_trace.E_squash { cycle = t.S.cycle; flushed })
  | Hooks.On_machine_clear ->
      record (Hw_trace.E_machine_clear { cycle = t.S.cycle })
  | Hooks.On_commit e ->
      record
        (Hw_trace.E_timing
           {
             pc = e.Rob_entry.pc;
             fetch = e.Rob_entry.t_fetch;
             rename = e.Rob_entry.t_rename;
             issue = e.Rob_entry.t_issue;
             complete = e.Rob_entry.t_complete;
             commit = t.S.cycle;
           })
  | _ -> ()

let stats_kinds =
  Hooks.
    [
      k_fetch;
      k_resolve_blocked;
      k_mem_access;
      k_load_executed;
      k_mispredict;
      k_order_violation;
      k_squash;
      k_machine_clear;
      k_commit;
      k_port_bound;
      k_port_stall;
      k_wb_queued;
      k_skip;
    ]

let stats_handler (t : S.t) (ev : Hooks.event) =
  let st = t.S.stats in
  match ev with
  | Hooks.On_fetch _ -> st.Stats.fetched <- st.Stats.fetched + 1
  | Hooks.On_resolve_blocked _ ->
      st.Stats.resolution_delay_cycles <- st.Stats.resolution_delay_cycles + 1
  | Hooks.On_mem_access { l1_hit; _ } ->
      st.Stats.l1d_accesses <- st.Stats.l1d_accesses + 1;
      if not l1_hit then st.Stats.l1d_misses <- st.Stats.l1d_misses + 1
  | Hooks.On_load_executed e ->
      st.Stats.loads_executed <- st.Stats.loads_executed + 1;
      (* Pop/ret read memory but only true loads carry the
         protected-access statistic. *)
      (match e.Rob_entry.insn.Insn.op with
      | Insn.Load _ ->
          if e.Rob_entry.mem_prot then
            st.Stats.loads_protected_mem <- st.Stats.loads_protected_mem + 1
      | _ -> ())
  | Hooks.On_mispredict _ ->
      st.Stats.branch_mispredicts <- st.Stats.branch_mispredicts + 1
  | Hooks.On_order_violation _ ->
      st.Stats.mem_order_violations <- st.Stats.mem_order_violations + 1
  | Hooks.On_squash { flushed; _ } ->
      st.Stats.squashes <- st.Stats.squashes + 1;
      st.Stats.squashed_insns <- st.Stats.squashed_insns + flushed
  | Hooks.On_machine_clear ->
      st.Stats.machine_clears <- st.Stats.machine_clears + 1
  | Hooks.On_port_bound { port; _ } -> Stats.bump_port_busy st port
  | Hooks.On_port_stall _ ->
      st.Stats.port_structural_stall_cycles <-
        st.Stats.port_structural_stall_cycles + 1
  | Hooks.On_wb_queued _ ->
      st.Stats.wb_queue_stall_cycles <- st.Stats.wb_queue_stall_cycles + 1
  | Hooks.On_skip { cycles } ->
      st.Stats.skipped_cycles <- st.Stats.skipped_cycles + cycles
  | Hooks.On_commit e ->
      if
        Rob_entry.is_store e
        && Int64.equal e.Rob_entry.addr Stage_commit.measurement_marker
        && st.Stats.marker_cycle = 0
      then st.Stats.marker_cycle <- t.S.cycle;
      st.Stats.committed <- st.Stats.committed + 1
  | _ -> ()

let install (t : S.t) =
  Hooks.subscribe t.S.hooks ~name:"policy" ~kinds:policy_kinds policy_handler;
  if Hw_trace.enabled t.S.trace then
    Hooks.subscribe t.S.hooks ~name:"trace" ~kinds:trace_kinds trace_handler;
  Hooks.subscribe t.S.hooks ~name:"stats" ~kinds:stats_kinds stats_handler
