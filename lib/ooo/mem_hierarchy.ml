(* The L1D/L2/L3 + TLB access path.

   Walking the hierarchy mutates cache and TLB state (fills, evictions,
   replacement metadata) — wrong-path accesses included, since transient
   fills are exactly the side channel the defenses must close.  The walk
   is reported as a single [On_mem_access] event whose [path] lists the
   fills and evictions in the order they happened; the trace observer
   replays them, the stats observer counts the L1D access/miss.

   The walk itself allocates nothing: [Cache.access] returns only the
   hit bit and keeps the set, tag and victim of its last access.  The
   path is rebuilt from those afterwards, and only when the pseudo-kind
   [Hooks.k_mem_path] (claimed by the trace observer) is wanted;
   otherwise the event carries [path = []].  Cache/TLB mutations are
   identical either way. *)

module S = Pipeline_state

(* The fill (and eviction) of a missing access at [level], in the order
   they happened, in front of [tail]. *)
let fill_events level c hit tail =
  if hit then tail
  else
    Hooks.M_fill { level; set = Cache.last_set c; tag = Cache.last_tag c }
    ::
    (match Cache.last_evicted c with
    | Some line -> Hooks.M_evict { level; line } :: tail
    | None -> tail)

(* Walk the hierarchy for a data access at [addr]; returns the latency. *)
let access (t : S.t) addr =
  let cfg = t.S.cfg in
  let tlb_hit = Tlb.access t.S.tlb addr in
  let tlb_penalty = if tlb_hit then 0 else cfg.Config.tlb_miss_latency in
  let l1_hit = Cache.access t.S.l1d addr in
  (* [l2_hit]/[l3_hit] are true for levels the walk never reached. *)
  let l2_hit = l1_hit || Cache.access t.S.l2 addr in
  let l3_hit =
    l2_hit || match t.S.l3 with Some l3 -> Cache.access l3 addr | None -> false
  in
  let latency =
    tlb_penalty
    +
    if l1_hit then cfg.Config.l1d.Config.latency
    else if l2_hit then cfg.Config.l2.Config.latency
    else
      match (t.S.l3, cfg.Config.l3) with
      | Some _, Some c when l3_hit -> c.Config.latency
      | Some _, None when l3_hit -> 0
      | _ -> cfg.Config.mem_latency
  in
  if S.wants t Hooks.k_mem_access then begin
    let path =
      if not (S.wants t Hooks.k_mem_path) then []
      else
        let l3_events =
          match t.S.l3 with
          | Some l3 when not l2_hit -> fill_events 3 l3 l3_hit []
          | _ -> []
        in
        let l2_events =
          if l1_hit then [] else fill_events 2 t.S.l2 l2_hit l3_events
        in
        let tail = fill_events 1 t.S.l1d l1_hit l2_events in
        if tlb_hit then tail else Hooks.M_tlb_fill (Tlb.page_of addr) :: tail
    in
    S.emit t (Hooks.On_mem_access { addr; l1_hit; latency; path })
  end;
  latency
