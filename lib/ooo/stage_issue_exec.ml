(* Issue/execute and branch-resolution stages.

   Dynamic issue under the policy's transmitter/wakeup/resolution gates:
   wakeup (source readiness through [may_forward]), dispatch of ready
   instructions up to [issue_width], per-opcode execution including the
   load/store paths (store-to-load forwarding, memory-order speculation
   with MDP-guided stalls, hierarchy walks via [Mem_hierarchy]), and
   delayed branch resolution with at most one squash per cycle.

   Cost model (the O(ready) scheduler): the per-cycle work is
   - [tick]: one pass over the in-flight deque (issued, not executed),
   - the issue scan: the ready set (live, unissued, non-dormant ring
     slots) in seq order, found a bitmap word at a time, breaking once
     [issue_width] is spent,
   - [resolve]: three passes over the unresolved-branch list.
   None of these ever visits a dormant, executed-but-uncommitted or
   committed slot, so cost tracks ready instructions, not ROB capacity
   or the length of dependence chains.  The traversal orders equal the
   old full-ring scans' (both seq-ascending), so every emission and
   policy query happens at the same point of the same cycle — asserted
   bit-for-bit by the golden corpus, and cross-checked against
   brute-force ring scans under [Pipeline_state.paranoid_sched].

   Policy denials of wakeup and execution are memoised per ROB slot and
   replayed without asking the gates while the speculation frontier
   holds (see [replay] and [Pipeline_state.memo_set]); the scan counts
   their stall cycles into [Stats] directly.

   Events: [On_wakeup]/[On_wakeup_blocked] per source, [On_exec_blocked]
   and [On_resolve_blocked] per denied cycle (memo replays included),
   [On_forward] on LSQ hits, [On_load_executed], [On_div_busy],
   [On_order_violation], [On_mispredict]. *)

open Protean_isa
open Protean_arch
module S = Pipeline_state

(* Copy the value produced for register [r] by entry [p] into
   [e.src_val.(i)] (no-op when [p] does not write [r], matching the old
   [producer_value] returning [None]). *)
let copy_producer_value (p : Rob_entry.t) r (e : Rob_entry.t) i =
  let dsts = p.Rob_entry.dsts in
  let n = Array.length dsts in
  let rec loop j =
    if j < n then
      if Reg.equal dsts.(j) r then e.Rob_entry.src_val.(i) <- p.Rob_entry.dst_val.(j)
      else loop (j + 1)
  in
  loop 0

(* Try to make all of [e]'s sources ready; returns true when they are.
   Values from in-flight producers are only visible once the producer has
   executed *and* the policy allows it to forward (the AccessDelay /
   ProtDelay wakeup-gating point).  [e] sits in ring slot [idx].

   A denied forward counts one [wakeup_delay_cycles] per denied source
   and is memoised on the slot with that weight (see
   [Pipeline_state.memo_set]); it marks progress only when a subscriber
   wants its [On_wakeup_blocked] events — the count itself is what a
   skipped span adds in bulk.

   Side effect on the scheduler: when nothing blocked on policy and some
   producer simply has not executed yet, every remaining non-ready
   source is waiting on an un-executed producer — the entry goes dormant
   and the issue scan skips it until [tick] wakes it.  Skipping is
   exact: for such an entry this function is pure and false (no
   emission, no mutation), and each of those sources already sits in its
   producer's wakeup chain (registered at rename, membership cleared
   only by the producer executing), so the *first* producer to execute
   wakes the entry.  No chain registration happens here. *)
let sources_ready (t : S.t) idx (e : Rob_entry.t) =
  let ap = S.api t in
  let ready = e.Rob_entry.src_ready in
  let n = Array.length ready in
  let all = ref true in
  let denied = ref 0 in
  for i = 0 to n - 1 do
    if not ready.(i) then begin
      let r, _ = e.Rob_entry.srcs.(i) in
      let prod = S.peek t e.Rob_entry.src_producer.(i) in
      if Rob_entry.is_null prod then begin
        (* Producer committed: its value is in the architectural
           register file (no younger writer can have committed). *)
        e.Rob_entry.src_val.(i) <- t.S.regs.(Reg.to_int r);
        ready.(i) <- true;
        t.S.progress <- true
      end
      else if prod.Rob_entry.executed then
        if t.S.policy.Policy.may_forward ap prod then begin
          copy_producer_value prod r e i;
          ready.(i) <- true;
          t.S.progress <- true;
          if S.wants t Hooks.k_wakeup then
            S.emit t (Hooks.On_wakeup { consumer = e; producer = prod })
        end
        else begin
          incr denied;
          if S.wants t Hooks.k_wakeup_blocked then begin
            t.S.progress <- true;
            S.emit t (Hooks.On_wakeup_blocked { consumer = e; producer = prod })
          end;
          all := false
        end
      else all := false
    end
  done;
  if !denied > 0 then begin
    let st = t.S.stats in
    st.Stats.wakeup_delay_cycles <- st.Stats.wakeup_delay_cycles + !denied;
    t.S.gate_denials <- t.S.gate_denials + !denied;
    S.memo_set t idx !denied
  end
  else if not !all then begin
    e.Rob_entry.dormant <- true;
    S.ready_remove t idx;
    t.S.progress <- true
  end;
  !all

let src_value (e : Rob_entry.t) reg role =
  let i = Rob_entry.find_src e reg role in
  if i >= 0 then e.Rob_entry.src_val.(i)
  else invalid_arg "Pipeline.src_value: operand not found"

(* Value of a [src] operand (register via the renamed sources, or an
   immediate). *)
let operand_value (e : Rob_entry.t) (s : Insn.src) role =
  match s with Insn.Imm v -> v | Insn.Reg r -> src_value e r role

let ea_of (e : Rob_entry.t) (m : Insn.mem) =
  let read r = src_value e r Insn.Addr in
  Sem.effective_address read m

(* The old value of a destination register (merging writes read it). *)
let old_of e r = src_value e r Insn.Data

let alu_latency (t : S.t) (op : Insn.op) =
  match op with
  | Insn.Binop (Insn.Mul, _, _) -> t.S.cfg.Config.mul_latency
  | _ -> t.S.cfg.Config.alu_latency

let set_dst (e : Rob_entry.t) r v =
  let n = Array.length e.Rob_entry.dsts in
  let rec loop i =
    if i < n then
      if Reg.equal e.Rob_entry.dsts.(i) r then e.Rob_entry.dst_val.(i) <- v
      else loop (i + 1)
  in
  loop 0

(* Begin executing [e]; all sources are ready.  Returns false when the
   instruction could not start (e.g. a load waiting on a store).  Sets
   [cycles_left]; results are computed here and become architectural when
   the entry commits. *)
let start_execution (t : S.t) (e : Rob_entry.t) =
  let insn = e.Rob_entry.insn in
  let started = ref true in
  (match insn.Insn.op with
  | Insn.Nop | Insn.Halt -> e.Rob_entry.cycles_left <- 1
  | Insn.Mov (w, d, s) ->
      let v = operand_value e s Insn.Data in
      let old = match w with Insn.W8 -> old_of e d | _ -> 0L in
      set_dst e d (Sem.apply_width w ~old v);
      e.Rob_entry.cycles_left <- alu_latency t insn.Insn.op
  | Insn.Lea (d, m) ->
      let read r = src_value e r Insn.Data in
      set_dst e d (Sem.effective_address read m);
      e.Rob_entry.cycles_left <- alu_latency t insn.Insn.op
  | Insn.Binop (o, d, s) ->
      let r, fl = Sem.eval_binop o (old_of e d) (operand_value e s Insn.Data) in
      set_dst e d r;
      set_dst e Reg.flags fl;
      e.Rob_entry.cycles_left <- alu_latency t insn.Insn.op
  | Insn.Unop (o, d) ->
      let r, fl = Sem.eval_unop o (old_of e d) in
      set_dst e d r;
      set_dst e Reg.flags fl;
      e.Rob_entry.cycles_left <- alu_latency t insn.Insn.op
  | Insn.Div (d, n, s) | Insn.Rem (d, n, s) ->
      let nv = src_value e n Insn.Divide in
      let dv = operand_value e s Insn.Divide in
      let lat =
        if Int64.equal dv 0L then t.S.cfg.Config.div_base_latency
        else t.S.cfg.Config.div_base_latency + (Sem.bit_length nv / 8)
      in
      if S.wants t Hooks.k_div_busy then
        S.emit t (Hooks.On_div_busy { latency = lat });
      if Int64.equal dv 0L then begin
        e.Rob_entry.fault <- true;
        set_dst e d Int64.minus_one
      end
      else begin
        let q =
          match insn.Insn.op with
          | Insn.Div _ -> Sem.eval_div nv dv
          | _ -> Sem.eval_rem nv dv
        in
        set_dst e d q
      end;
      e.Rob_entry.cycles_left <- lat
  | Insn.Cmp (a, s) ->
      set_dst e Reg.flags
        (Sem.eval_cmp (src_value e a Insn.Data) (operand_value e s Insn.Data));
      e.Rob_entry.cycles_left <- alu_latency t insn.Insn.op
  | Insn.Test (a, s) ->
      set_dst e Reg.flags
        (Sem.eval_test (src_value e a Insn.Data) (operand_value e s Insn.Data));
      e.Rob_entry.cycles_left <- alu_latency t insn.Insn.op
  | Insn.Setcc (c, d) ->
      let fl = src_value e Reg.flags Insn.Cond_in in
      set_dst e d (if Sem.eval_cond c fl then 1L else 0L);
      e.Rob_entry.cycles_left <- alu_latency t insn.Insn.op
  | Insn.Cmov (c, d, s) ->
      let fl = src_value e Reg.flags Insn.Cond_in in
      let v =
        if Sem.eval_cond c fl then operand_value e s Insn.Data else old_of e d
      in
      set_dst e d v;
      e.Rob_entry.cycles_left <- alu_latency t insn.Insn.op
  | Insn.Jcc (c, target) ->
      let fl = src_value e Reg.flags Insn.Cond_in in
      e.Rob_entry.actual_target <-
        (if Sem.eval_cond c fl then target else e.Rob_entry.pc + 1);
      e.Rob_entry.cycles_left <- 1
  | Insn.Jmp target ->
      e.Rob_entry.actual_target <- target;
      e.Rob_entry.cycles_left <- 1
  | Insn.Jmpi r ->
      e.Rob_entry.actual_target <- Int64.to_int (src_value e r Insn.Target);
      e.Rob_entry.cycles_left <- 1
  | Insn.Load (w, d, m) ->
      let addr = ea_of e m in
      let size = Insn.width_bytes w in
      (match Stage_memory.forward_search t e addr size with
      | Stage_memory.Fwd_wait -> started := false
      | Stage_memory.Fwd_value st ->
          e.Rob_entry.addr <- addr;
          e.Rob_entry.msize <- size;
          e.Rob_entry.addr_ready <- true;
          e.Rob_entry.fwd_from <- st.Rob_entry.seq;
          let v = Stage_memory.forwarded_value st addr size in
          e.Rob_entry.mem_value <- v;
          e.Rob_entry.mem_prot <- st.Rob_entry.mem_prot;
          let old = match w with Insn.W8 -> old_of e d | _ -> 0L in
          set_dst e d (Sem.apply_width w ~old (Sem.truncate_width w v));
          e.Rob_entry.cycles_left <- t.S.cfg.Config.store_forward_latency;
          if S.wants t Hooks.k_forward then
            S.emit t (Hooks.On_forward { load = e; store = st })
      | Stage_memory.Fwd_none ->
          e.Rob_entry.addr <- addr;
          e.Rob_entry.msize <- size;
          e.Rob_entry.addr_ready <- true;
          let v = Memory.read t.S.mem addr size in
          e.Rob_entry.mem_value <- v;
          e.Rob_entry.mem_prot <- S.l1d_protected t addr size;
          let old = match w with Insn.W8 -> old_of e d | _ -> 0L in
          set_dst e d (Sem.apply_width w ~old v);
          let lat = t.S.cfg.Config.load_agu_latency + Mem_hierarchy.access t addr in
          e.Rob_entry.cycles_left <- lat);
      if !started && S.wants t Hooks.k_load_executed then
        S.emit t (Hooks.On_load_executed e)
  | Insn.Store (w, m, s) ->
      let addr = ea_of e m in
      let size = Insn.width_bytes w in
      e.Rob_entry.addr <- addr;
      e.Rob_entry.msize <- size;
      e.Rob_entry.addr_ready <- true;
      e.Rob_entry.mem_value <-
        Sem.truncate_width w (operand_value e s Insn.Data);
      (* The store's LSQ protection bit: its data operand's tag. *)
      e.Rob_entry.mem_prot <-
        (match s with
        | Insn.Reg r ->
            let i = Rob_entry.find_src e r Insn.Data in
            i >= 0 && e.Rob_entry.src_prot.(i)
        | Insn.Imm _ -> false);
      ignore (Tlb.access t.S.tlb addr);
      e.Rob_entry.cycles_left <- 1
  | Insn.Push s ->
      let sp = src_value e Reg.rsp Insn.Addr in
      let addr = Int64.sub sp 8L in
      e.Rob_entry.addr <- addr;
      e.Rob_entry.msize <- 8;
      e.Rob_entry.addr_ready <- true;
      e.Rob_entry.mem_value <- operand_value e s Insn.Data;
      e.Rob_entry.mem_prot <-
        (match s with
        | Insn.Reg r ->
            let i = Rob_entry.find_src e r Insn.Data in
            i >= 0 && e.Rob_entry.src_prot.(i)
        | Insn.Imm _ -> false);
      set_dst e Reg.rsp addr;
      ignore (Tlb.access t.S.tlb addr);
      e.Rob_entry.cycles_left <- 1
  | Insn.Call target ->
      let sp = src_value e Reg.rsp Insn.Addr in
      let addr = Int64.sub sp 8L in
      e.Rob_entry.addr <- addr;
      e.Rob_entry.msize <- 8;
      e.Rob_entry.addr_ready <- true;
      e.Rob_entry.mem_value <- Int64.of_int (e.Rob_entry.pc + 1);
      e.Rob_entry.mem_prot <- false;
      set_dst e Reg.rsp addr;
      e.Rob_entry.actual_target <- target;
      ignore (Tlb.access t.S.tlb addr);
      e.Rob_entry.cycles_left <- 1
  | Insn.Pop d ->
      let sp = src_value e Reg.rsp Insn.Addr in
      (match Stage_memory.forward_search t e sp 8 with
      | Stage_memory.Fwd_wait -> started := false
      | Stage_memory.Fwd_value st ->
          e.Rob_entry.addr <- sp;
          e.Rob_entry.msize <- 8;
          e.Rob_entry.addr_ready <- true;
          e.Rob_entry.fwd_from <- st.Rob_entry.seq;
          let v = Stage_memory.forwarded_value st sp 8 in
          e.Rob_entry.mem_value <- v;
          e.Rob_entry.mem_prot <- st.Rob_entry.mem_prot;
          set_dst e d v;
          set_dst e Reg.rsp (Int64.add sp 8L);
          e.Rob_entry.cycles_left <- t.S.cfg.Config.store_forward_latency;
          if S.wants t Hooks.k_forward then
            S.emit t (Hooks.On_forward { load = e; store = st })
      | Stage_memory.Fwd_none ->
          e.Rob_entry.addr <- sp;
          e.Rob_entry.msize <- 8;
          e.Rob_entry.addr_ready <- true;
          let v = Memory.read t.S.mem sp 8 in
          e.Rob_entry.mem_value <- v;
          e.Rob_entry.mem_prot <- S.l1d_protected t sp 8;
          set_dst e d v;
          set_dst e Reg.rsp (Int64.add sp 8L);
          e.Rob_entry.cycles_left <-
            t.S.cfg.Config.load_agu_latency + Mem_hierarchy.access t sp);
      if !started && S.wants t Hooks.k_load_executed then
        S.emit t (Hooks.On_load_executed e)
  | Insn.Ret ->
      let sp = src_value e Reg.rsp Insn.Addr in
      (match Stage_memory.forward_search t e sp 8 with
      | Stage_memory.Fwd_wait -> started := false
      | Stage_memory.Fwd_value st ->
          e.Rob_entry.addr <- sp;
          e.Rob_entry.msize <- 8;
          e.Rob_entry.addr_ready <- true;
          e.Rob_entry.fwd_from <- st.Rob_entry.seq;
          let v = Stage_memory.forwarded_value st sp 8 in
          e.Rob_entry.mem_value <- v;
          e.Rob_entry.mem_prot <- st.Rob_entry.mem_prot;
          set_dst e Reg.tmp v;
          set_dst e Reg.rsp (Int64.add sp 8L);
          e.Rob_entry.actual_target <- Int64.to_int v;
          e.Rob_entry.cycles_left <- t.S.cfg.Config.store_forward_latency;
          if S.wants t Hooks.k_forward then
            S.emit t (Hooks.On_forward { load = e; store = st })
      | Stage_memory.Fwd_none ->
          e.Rob_entry.addr <- sp;
          e.Rob_entry.msize <- 8;
          e.Rob_entry.addr_ready <- true;
          let v = Memory.read t.S.mem sp 8 in
          e.Rob_entry.mem_value <- v;
          e.Rob_entry.mem_prot <- S.l1d_protected t sp 8;
          set_dst e Reg.tmp v;
          set_dst e Reg.rsp (Int64.add sp 8L);
          e.Rob_entry.actual_target <- Int64.to_int v;
          e.Rob_entry.cycles_left <-
            t.S.cfg.Config.load_agu_latency + Mem_hierarchy.access t sp);
      if !started && S.wants t Hooks.k_load_executed then
        S.emit t (Hooks.On_load_executed e));
  if !started then begin
    e.Rob_entry.issued <- true;
    e.Rob_entry.t_issue <- t.S.cycle;
    t.S.progress <- true;
    (* A store whose address just resolved may expose a memory-order
       violation by a younger, already-executed load. *)
    if Rob_entry.is_store e then begin
      let ld = Stage_memory.check_order_violation t e in
      if not (Rob_entry.is_null ld) then begin
        if S.wants t Hooks.k_order_violation then
          S.emit t (Hooks.On_order_violation { store = e; load = ld });
        Stage_memory.mdp_flag t ld.Rob_entry.pc;
        Squash.flush t ~from_seq:ld.Rob_entry.seq ~new_pc:ld.Rob_entry.pc
      end
    end
  end;
  !started

(* Transmitters whose execution (as opposed to resolution) the policy can
   delay: memory accesses and divisions.  Branch resolution is gated
   separately. *)
let execution_gated (e : Rob_entry.t) =
  match e.Rob_entry.insn.Insn.op with
  | Insn.Load _ | Insn.Store _ | Insn.Push _ | Insn.Pop _ | Insn.Ret
  | Insn.Call _ | Insn.Div _ | Insn.Rem _ ->
      true
  | _ -> false

(* Complete [e]: mark it executed and wake the consumers parked on its
   wakeup chain (clear their chain memberships and put them back in the
   ready set, so the issue scan visits them from this cycle on).  A
   waiter may be active with a memoised wakeup denial on another source;
   the memo is cleared, since the newly executed producer's forward has
   not been asked yet. *)
let complete_entry (t : S.t) (e : Rob_entry.t) =
  e.Rob_entry.executed <- true;
  e.Rob_entry.t_complete <- t.S.cycle;
  t.S.progress <- true;
  let c = ref e.Rob_entry.waiters in
  let s = ref e.Rob_entry.waiters_slot in
  e.Rob_entry.waiters <- Rob_entry.null;
  while not (Rob_entry.is_null !c) do
    let cur = !c and slot = !s in
    c := cur.Rob_entry.wl_next.(slot);
    s := cur.Rob_entry.wl_slot.(slot);
    cur.Rob_entry.wl_next.(slot) <- Rob_entry.null;
    cur.Rob_entry.wl_slot.(slot) <- -1;
    cur.Rob_entry.dormant <- false;
    let idx = S.idx_of_seq t cur.Rob_entry.seq in
    S.memo_clear t idx;
    S.ready_add t idx
  done

(* Tick the in-flight set: decrement, mark executed at zero, wake the
   dormant consumers parked on the completing producer, and compact the
   deque in place.  Runs before the issue scan, which is exact because
   every producer is strictly older than its consumers: in the old
   interleaved full-ring pass, a producer's tick always preceded its
   consumers' wakeup checks within the same cycle.

   Under a bounded writeback budget ([Config.ports] with [wb_width] > 0)
   at most [wb_width] finished computations broadcast per cycle, oldest
   sequence numbers first; the rest stay in the deque (cycles_left <= 0,
   still issued-and-unexecuted, so every scheduler invariant holds and
   their consumers stay correctly dormant) and contend again next
   cycle.  Each deferred completion is reported via [On_wb_queued]. *)
let tick (t : S.t) =
  let q = t.S.inflight in
  let a = q.Entryq.a in
  let front = q.Entryq.front and back = q.Entryq.back in
  let wb_budget =
    match t.S.cfg.Config.ports with
    | None -> 0
    | Some pc -> pc.Config.wb_width
  in
  if wb_budget <= 0 then begin
    (* Unbounded broadcast: the historical single compacting pass. *)
    let w = ref front in
    for i = front to back - 1 do
      let e = a.(i) in
      e.Rob_entry.cycles_left <- e.Rob_entry.cycles_left - 1;
      if e.Rob_entry.cycles_left <= 0 then complete_entry t e
      else begin
        a.(!w) <- e;
        incr w
      end
    done;
    for i = !w to back - 1 do
      a.(i) <- Rob_entry.null
    done;
    q.Entryq.back <- !w
  end
  else begin
    (* Decrement everything first; candidates are entries whose
       computation has finished (including ones deferred earlier). *)
    for i = front to back - 1 do
      let e = a.(i) in
      e.Rob_entry.cycles_left <- e.Rob_entry.cycles_left - 1
    done;
    (* Grant the broadcast slots oldest-seq-first: up to [wb_budget]
       selection passes over the deque (the deque is in issue order, not
       seq order).  Completing marks the entry executed, which both
       excludes it from later passes and lets the compaction below drop
       it. *)
    let granted = ref 0 in
    let continue_ = ref true in
    while !granted < wb_budget && !continue_ do
      let best = ref Rob_entry.null in
      for i = front to back - 1 do
        let e = a.(i) in
        if
          (not e.Rob_entry.executed)
          && e.Rob_entry.cycles_left <= 0
          && (Rob_entry.is_null !best
             || e.Rob_entry.seq < !best.Rob_entry.seq)
        then best := e
      done;
      if Rob_entry.is_null !best then continue_ := false
      else begin
        complete_entry t !best;
        incr granted
      end
    done;
    (* Compact: drop completed entries, keep running and deferred ones
       (a kept entry with cycles_left <= 0 lost the broadcast race). *)
    let w = ref front in
    for i = front to back - 1 do
      let e = a.(i) in
      if not e.Rob_entry.executed then begin
        if e.Rob_entry.cycles_left <= 0 then begin
          (* Deferred completion: the per-cycle [wb_queue_stall_cycles]
             accounting makes this cycle (and every cycle until the
             broadcast slot is won) unskippable. *)
          t.S.progress <- true;
          if S.wants t Hooks.k_wb_queued then S.emit t (Hooks.On_wb_queued e)
        end;
        a.(!w) <- e;
        incr w
      end
    done;
    for i = !w to back - 1 do
      a.(i) <- Rob_entry.null
    done;
    q.Entryq.back <- !w
  end

(* Lowest-numbered execution port that can accept an instruction of
   class [cls] this cycle: capability match, not already bound this
   cycle, and not held across cycles by an unpipelined computation.
   Returns -1 when every compatible port is occupied (a structural
   stall).  Lowest-first selection is deterministic and mirrors
   hardware's fixed port-arbitration priority. *)
let find_port (t : S.t) (pc : Config.port_cfg) cls =
  let n = Array.length pc.Config.port_caps in
  let i = ref 0 in
  while
    !i < n
    && not
         (Config.port_can pc !i cls
         && (not t.S.port_used.(!i))
         && t.S.port_busy_until.(!i) <= t.S.cycle)
  do
    incr i
  done;
  if !i < n then !i else -1

(* Consider ready entry [e] in slot [idx]: the wakeup check, then the
   policy, MDP and port gates, then [start_execution].  Returns true when
   [e] issued.  An execution denial is counted and memoised like a
   wakeup denial (weight 1; see [sources_ready]). *)
let consider (t : S.t) ap pcfg idx (e : Rob_entry.t) =
  if not (sources_ready t idx e) then false
  else if
    execution_gated e && not (t.S.policy.Policy.may_execute_transmitter ap e)
  then begin
    let st = t.S.stats in
    st.Stats.transmitter_stall_cycles <- st.Stats.transmitter_stall_cycles + 1;
    t.S.gate_denials <- t.S.gate_denials + 1;
    S.memo_set t idx S.memo_exec;
    if S.wants t Hooks.k_exec_blocked then begin
      t.S.progress <- true;
      S.emit t (Hooks.On_exec_blocked e)
    end;
    false
  end
  else if
    Rob_entry.is_load e
    && Stage_memory.mdp_flagged t e.Rob_entry.pc
    && Stage_memory.older_store_addr_unknown t e
  then false (* memory-dependence predictor: wait for stores *)
  else begin
    (* Structural port arbitration: a ready entry must win a compatible
       free port before it may start.  Losing does not consume an issue
       slot — a younger entry of another class may still issue behind it
       this cycle.  The port is claimed only after [start_execution]
       succeeds (a load parked on Fwd_wait holds neither a slot nor a
       port). *)
    let port =
      match pcfg with
      | None -> 0
      | Some pc -> find_port t pc (Rob_entry.op_class e)
    in
    if port < 0 then begin
      t.S.progress <- true;
      if S.wants t Hooks.k_port_stall then S.emit t (Hooks.On_port_stall e);
      false
    end
    else if start_execution t e then begin
      (match pcfg with
      | None -> ()
      | Some pc ->
          e.Rob_entry.port <- port;
          t.S.port_used.(port) <- true;
          if
            not
              pc.Config.cls_pipelined.(Config.op_class_index
                                         (Rob_entry.op_class e))
          then
            t.S.port_busy_until.(port) <- t.S.cycle + e.Rob_entry.cycles_left;
          if S.wants t Hooks.k_port_bound then
            S.emit t (Hooks.On_port_bound { port; entry = e }));
      Entryq.push t.S.inflight e;
      true
    end
    else false
  end

(* What a fresh ask of the gates gives for memoised [e] now: the
   number of denied forwards for a wakeup memo (0 when a source could
   wake instead), [memo_exec] when the execution gate still denies.
   Only the paranoid replay cross-check calls it. *)
let recheck_memo (t : S.t) ap (e : Rob_entry.t) w =
  let ready = e.Rob_entry.src_ready in
  if w > 0 then begin
    let denied = ref 0 and wakes = ref false in
    for i = 0 to Array.length ready - 1 do
      if not ready.(i) then begin
        let prod = S.peek t e.Rob_entry.src_producer.(i) in
        if Rob_entry.is_null prod then wakes := true
        else if prod.Rob_entry.executed then
          if t.S.policy.Policy.may_forward ap prod then wakes := true
          else incr denied
      end
    done;
    if !wakes then 0 else !denied
  end
  else if
    Array.for_all Fun.id ready
    && execution_gated e
    && not (t.S.policy.Policy.may_execute_transmitter ap e)
  then S.memo_exec
  else 0

(* Replay the memoised denial of [e] in slot [idx]: count it and emit
   its events (one [On_wakeup_blocked] per denied source, found as the
   non-ready sources whose live producer has executed, or one
   [On_exec_blocked]), marking progress only when those events are
   wanted.  Under [--paranoid-sched] the gates are asked again and must
   deny with the same weight. *)
let replay (t : S.t) ap idx (e : Rob_entry.t) =
  let w = t.S.memo.(idx) in
  if t.S.paranoid then begin
    let fresh = recheck_memo t ap e w in
    if fresh <> w then
      raise
        (S.Sim_fault
           (S.fault t
              (S.Invariant_violation
                 (Printf.sprintf
                    "memo-replay: seq %d memoised weight %d, the gates now \
                     give %d at the same frontier"
                    e.Rob_entry.seq w fresh))))
  end;
  let st = t.S.stats in
  if w > 0 then begin
    st.Stats.wakeup_delay_cycles <- st.Stats.wakeup_delay_cycles + w;
    if S.wants t Hooks.k_wakeup_blocked then begin
      t.S.progress <- true;
      let ready = e.Rob_entry.src_ready in
      for i = 0 to Array.length ready - 1 do
        if not ready.(i) then begin
          let prod = S.peek t e.Rob_entry.src_producer.(i) in
          if (not (Rob_entry.is_null prod)) && prod.Rob_entry.executed then
            S.emit t (Hooks.On_wakeup_blocked { consumer = e; producer = prod })
        end
      done
    end
  end
  else begin
    st.Stats.transmitter_stall_cycles <- st.Stats.transmitter_stall_cycles + 1;
    if S.wants t Hooks.k_exec_blocked then begin
      t.S.progress <- true;
      S.emit t (Hooks.On_exec_blocked e)
    end
  end

(* The issue scan: the ready set in seq order — ring slots from
   [head_idx] to the end of the ring, then from slot 0 up to [head_idx]
   — until [issue_width] entries have issued.  Dormant entries are not
   in the set, so they are never visited.  A slot with a valid memo is
   replayed; any other is considered afresh (dropping a stale memo
   first).  Replays stay in the ready set and in seq order, so the stop
   at [issue_width] is unchanged.  A store issuing may squash from a
   younger load's seq; the flush clears the flushed slots' bits and
   memos, so the scan goes on over the older survivors only. *)
let run (t : S.t) =
  tick t;
  let ap = S.api t in
  let width = t.S.cfg.Config.issue_width in
  let pcfg = t.S.cfg.Config.ports in
  (match pcfg with
  | None -> ()
  | Some _ -> Array.fill t.S.port_used 0 (Array.length t.S.port_used) false);
  let n = S.rob_size t in
  let head = t.S.head_idx in
  let issued = ref 0 in
  let pos = ref head and limit = ref n in
  while !issued < width && !pos >= 0 do
    let i = S.ready_next t !pos !limit in
    if i >= 0 then begin
      t.S.scan_visits <- t.S.scan_visits + 1;
      let e = t.S.rob.(i) in
      if S.memo_valid t i then replay t ap i e
      else begin
        S.memo_clear t i;
        if consider t ap pcfg i e then begin
          S.ready_remove t i;
          incr issued
        end
      end;
      pos := i + 1
    end
    else if !limit = n && head > 0 then begin
      pos := 0;
      limit := head
    end
    else pos := -1
  done

(* Resolve branches: confirm correctly-predicted ones and initiate at most
   one squash per cycle from the oldest eligible misprediction.  All three
   passes walk the unresolved-branch list in seq order — the same entries,
   in the same order, as the old full-ring scans (every list member is a
   live unresolved branch and vice versa).

   With [squash_bug] set, the stage instead considers the oldest
   *detected* misprediction regardless of whether the policy allows it to
   resolve — so an older protected/tainted branch can block a younger
   unprotected one from squashing, a secret-dependent timing difference
   (the corner case AMuLeT* found in STT/SPT/SPT-SB, Section VII-B4b). *)
let resolve (t : S.t) =
  let ap = S.api t in
  (* Confirm correct predictions (no squash needed).  Resolving unlinks
     the entry, which immediately updates [oldest_unresolved_branch] —
     the same mid-pass visibility the memo-invalidation used to give. *)
  let cursor = ref t.S.bq_head in
  while not (Rob_entry.is_null !cursor) do
    let e = !cursor in
    let next = e.Rob_entry.bq_next in
    if
      e.Rob_entry.executed
      && (not e.Rob_entry.mispredicted)
      && e.Rob_entry.actual_target = e.Rob_entry.pred_target
    then
      if t.S.policy.Policy.may_resolve ap e then begin
        e.Rob_entry.resolved <- true;
        S.bq_unlink t e;
        t.S.progress <- true;
        if S.wants t Hooks.k_window_close then
          S.emit t
            (Hooks.On_window_close { entry = e; cause = Hooks.W_resolved })
      end
      else begin
        t.S.progress <- true;
        if S.wants t Hooks.k_resolve_blocked then
          S.emit t (Hooks.On_resolve_blocked e)
      end;
    cursor := next
  done;
  (* Detect mispredictions. *)
  let cursor = ref t.S.bq_head in
  while not (Rob_entry.is_null !cursor) do
    let e = !cursor in
    if
      e.Rob_entry.executed
      && e.Rob_entry.actual_target <> e.Rob_entry.pred_target
      && not e.Rob_entry.mispredicted
    then begin
      e.Rob_entry.mispredicted <- true;
      t.S.progress <- true
    end;
    cursor := e.Rob_entry.bq_next
  done;
  (* Oldest eligible misprediction wins the squash slot. *)
  let candidate = ref Rob_entry.null in
  (try
     let cursor = ref t.S.bq_head in
     while not (Rob_entry.is_null !cursor) do
       let e = !cursor in
       let next = e.Rob_entry.bq_next in
       if e.Rob_entry.executed && e.Rob_entry.mispredicted then begin
         if t.S.squash_bug then begin
           (* Buggy notification: the oldest detected misprediction wins
              the single notification slot even if its squash must be
              deferred. *)
           candidate := e;
           raise Exit
         end
         else if t.S.policy.Policy.may_resolve ap e then begin
           candidate := e;
           raise Exit
         end
         else begin
           t.S.progress <- true;
           if S.wants t Hooks.k_resolve_blocked then
             S.emit t (Hooks.On_resolve_blocked e)
         end
       end;
       cursor := next
     done
   with Exit -> ());
  let c = !candidate in
  if (not (Rob_entry.is_null c)) && t.S.policy.Policy.may_resolve ap c then begin
    c.Rob_entry.resolved <- true;
    S.bq_unlink t c;
    t.S.progress <- true;
    if S.wants t Hooks.k_window_close then
      S.emit t (Hooks.On_window_close { entry = c; cause = Hooks.W_mispredicted });
    if S.wants t Hooks.k_mispredict then S.emit t (Hooks.On_mispredict c);
    Squash.flush t ~from_seq:(c.Rob_entry.seq + 1)
      ~new_pc:c.Rob_entry.actual_target
  end
