(* Set-associative cache with LRU replacement and, for the L1D, the
   per-byte protection bits of ProtISA's memory ProtSet tracking
   (Section IV-C2a).

   The cache models timing and tag state only; data always comes from the
   memory module (architectural state) or the LSQ.  Protection bits are
   attached to L1D lines: a line fill starts with every byte protected
   (evictions make ProtISA forget what was unprotected), committing
   unprefixed loads clear the bits of accessed bytes, and stores write
   their data operand's protection.

   Protection tracking is per-instance ([create ~prot:false] for the
   L2/L3, whose bytes ProtISA never tracks): untracked caches share one
   dummy protection buffer between all lines and skip the per-fill
   reset.  Sets are materialized lazily on the first miss that touches
   them — an empty set behaves exactly like one whose ways are all
   invalid, so a multi-megabyte L3 costs one pointer per set to create
   instead of half a million line records. *)

type line = {
  mutable tag : int;
  mutable valid : bool;
  mutable lru : int; (* higher = more recently used *)
  mutable prot : Bytes.t; (* one byte per line byte: 1 = protected *)
}

(* Tags and set indices are plain [int]s: a line number ([addr lsr
   lbits], at most 58 bits for 64-byte lines) fits exactly, and an int
   tag field is written without boxing.  [access] reports its outcome
   through the [last_*] fields instead of a result record, so a walk of
   the hierarchy allocates nothing; [Mem_hierarchy] reads them back only
   when a subscriber wants the fill/evict path. *)
type t = {
  cfg : Config.cache_cfg;
  nsets : int;
  set_mask : int; (* nsets - 1 when nsets is a power of two, else -1 *)
  lbits : int; (* log2 line size *)
  track_prot : bool;
  shared_prot : Bytes.t; (* every line's [prot] when not tracking *)
  sets : line array array; (* [||] = untouched set (all ways invalid) *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  mutable last_set : int; (* set index of the last access *)
  mutable last_tag : int; (* tag of the last access *)
  mutable last_evicted : int; (* tag of its victim; -1 = none *)
}

let create ?(prot = true) (cfg : Config.cache_cfg) =
  let nsets = Config.cache_sets cfg in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  {
    cfg;
    nsets;
    set_mask = (if nsets land (nsets - 1) = 0 then nsets - 1 else -1);
    lbits = log2 cfg.line;
    track_prot = prot;
    shared_prot = Bytes.make cfg.line '\001';
    sets = Array.make nsets [||];
    clock = 0;
    accesses = 0;
    misses = 0;
    last_set = 0;
    last_tag = 0;
    last_evicted = -1;
  }

let line_number t addr = Int64.to_int (Int64.shift_right_logical addr t.lbits)

let set_of_line t ln =
  if t.set_mask >= 0 then ln land t.set_mask else ln mod t.nsets

let set_index t addr = set_of_line t (line_number t addr)
let tag_of t addr = Int64.of_int (line_number t addr)
let line_addr t addr = Int64.shift_left (tag_of t addr) t.lbits
let line_offset t addr = Int64.to_int addr land (t.cfg.line - 1)

(* Materialize a set's ways on first (miss) use. *)
let get_set t idx =
  let s = t.sets.(idx) in
  if Array.length s > 0 then s
  else begin
    let s =
      Array.init t.cfg.ways (fun _ ->
          {
            tag = 0;
            valid = false;
            lru = 0;
            prot =
              (if t.track_prot then Bytes.make t.cfg.line '\001'
               else t.shared_prot);
          })
    in
    t.sets.(idx) <- s;
    s
  end

(* Read-only lookup of line number [ln] in its set: the way index, or -1
   (an unmaterialized set holds nothing).  The loops here and below are
   top-level or [while] loops: a local recursive function capturing its
   surroundings would allocate a closure per call. *)
let rec find_from set ln i =
  if i >= Array.length set then -1
  else
    let l = set.(i) in
    if l.valid && l.tag = ln then i else find_from set ln (i + 1)

let find set ln = find_from set ln 0

let touch t line =
  t.clock <- t.clock + 1;
  line.lru <- t.clock

(* Access the line containing [addr]: update LRU, allocate on miss
   (evicting the LRU way).  Newly-filled lines have all bytes protected.
   Returns the hit bit; set, tag and victim are left in [last_*]. *)
let access t addr =
  t.accesses <- t.accesses + 1;
  let ln = line_number t addr in
  let set_idx = set_of_line t ln in
  t.last_set <- set_idx;
  t.last_tag <- ln;
  let set = t.sets.(set_idx) in
  let w = find set ln in
  if w >= 0 then begin
    touch t set.(w);
    t.last_evicted <- -1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let set = get_set t set_idx in
    (* Victim: the first invalid way, else the least recently used one
       (the first of equals). *)
    let best = ref set.(0) in
    for i = 1 to Array.length set - 1 do
      let line = set.(i) and b = !best in
      if
        ((not line.valid) && b.valid)
        || (line.valid = b.valid && line.lru < b.lru)
      then best := line
    done;
    let line = !best in
    t.last_evicted <- (if line.valid then line.tag else -1);
    line.valid <- true;
    line.tag <- ln;
    if t.track_prot then Bytes.fill line.prot 0 t.cfg.line '\001';
    touch t line;
    false
  end

let last_set t = t.last_set
let last_tag t = Int64.of_int t.last_tag

let last_evicted t =
  if t.last_evicted < 0 then None
  else Some (Int64.shift_left (Int64.of_int t.last_evicted) t.lbits)

(* --- Protection bits ------------------------------------------------ *)

(* The protection bytes of the line holding [addr], or [Bytes.empty]
   when the line is not present: one set lookup. *)
let line_prot t addr =
  let ln = line_number t addr in
  let set = t.sets.(set_of_line t ln) in
  let w = find set ln in
  if w < 0 then Bytes.empty else set.(w).prot

(* Are any of the [size] bytes at [addr] protected?  Bytes not present in
   the cache are protected by definition.  An access inside one line
   costs one lookup and a scan of its byte range; a line-straddling one
   goes byte by byte. *)
let protected_bytes t addr size =
  let off = line_offset t addr in
  let any = ref false in
  if off + size <= t.cfg.line then begin
    let p = line_prot t addr in
    if Bytes.length p = 0 then any := size > 0
    else
      for i = off to off + size - 1 do
        if Bytes.get p i = '\001' then any := true
      done
  end
  else
    for i = 0 to size - 1 do
      let a = Int64.add addr (Int64.of_int i) in
      let p = line_prot t a in
      if Bytes.length p = 0 || Bytes.get p (line_offset t a) = '\001' then
        any := true
    done;
  !any

(* Set the protection of the [size] bytes at [addr] that are present. *)
let set_protection t addr size ~protected =
  let v = if protected then '\001' else '\000' in
  let off = line_offset t addr in
  if size <= 0 then ()
  else if off + size <= t.cfg.line then begin
    let p = line_prot t addr in
    if Bytes.length p > 0 then Bytes.fill p off size v
  end
  else
    for i = 0 to size - 1 do
      let a = Int64.add addr (Int64.of_int i) in
      let p = line_prot t a in
      if Bytes.length p > 0 then Bytes.set p (line_offset t a) v
    done

let stats t = (t.accesses, t.misses)
