(* Span recorder for the traced run.

   Every call the benchmark makes into a layer's public function runs
   under [with_span]: the span gets an id, its parent's id and the
   caller's args (cell or program id), is kept in memory in a
   [Protean_telemetry.Trace] recorder, and is written out once when the
   run ends.  Spans may close on any domain; recording is
   mutex-serialized.

   Self time is a span's duration minus the part of it its children
   cover (the union of their intervals, so children running in
   parallel are not counted twice).  Replay spans time a direct call
   whose work also happened, untraced, inside another layer's call;
   they feed their own metrics but not the layer self times, which
   would otherwise count that work twice. *)

module Trace = Protean_telemetry.Trace

type span = {
  id : int;
  parent : int;
  layer : string;
  replay : bool;
  t0 : float;
  t1 : float;
}

type t = {
  trace : Trace.t;
  next : int Atomic.t;
  lock : Mutex.t;
  mutable spans : span list; (* since the last [take_self_times] *)
  sums : (string, float) Hashtbl.t; (* since the last [take_sums] *)
}

let create () =
  {
    trace = Trace.create ();
    next = Atomic.make 1;
    lock = Mutex.create ();
    spans = [];
    sums = Hashtbl.create 32;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add_unlocked t key v =
  Hashtbl.replace t.sums key (v +. Option.value ~default:0. (Hashtbl.find_opt t.sums key))

(* Accumulate a count (or a duration measured elsewhere) under [key]. *)
let add t key v = locked t (fun () -> add_unlocked t key v)

(* Run [f] under a span; [f] receives the span id, the parent of any
   nested span.  [metric] also accumulates the duration under that key. *)
let with_span t ?(parent = 0) ?(replay = false) ?(args = []) ?metric ~layer
    name f =
  let id = Atomic.fetch_and_add t.next 1 in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    let args =
      ("span_id", string_of_int id)
      :: ("parent_id", string_of_int parent)
      :: ((if replay then [ ("replay", "true") ] else []) @ args)
    in
    Trace.span t.trace ~cat:layer ~tid:(Domain.self () :> int) ~args ~t0 ~t1 name;
    locked t (fun () ->
        t.spans <- { id; parent; layer; replay; t0; t1 } :: t.spans;
        Option.iter (fun k -> add_unlocked t k (t1 -. t0)) metric)
  in
  Fun.protect ~finally:finish (fun () -> f id)

let take_sums t =
  locked t (fun () ->
      let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.sums [] in
      Hashtbl.reset t.sums;
      l)

(* Total length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0., None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self seconds per layer over the non-replay spans closed since the
   previous call. *)
let take_self_times t =
  let spans = locked t (fun () -> let s = t.spans in t.spans <- []; s) in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let siblings = Option.value ~default:[] (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent ((s.t0, s.t1) :: siblings))
    spans;
  let self = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if not s.replay then begin
        let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
        let v = s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids in
        Hashtbl.replace self s.layer
          (v +. Option.value ~default:0. (Hashtbl.find_opt self s.layer))
      end)
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []

let to_chrome_json t = Trace.to_chrome_json t.trace
