(* Property tests for the word-granular memory model: [Memory], [Protset]
   and the L1D's per-byte protection bits in [Cache], each checked
   against a byte-by-byte reference model on random operation sequences.
   Addresses cluster around page and line boundaries (so accesses
   straddle them), near [Int64.max_int] and near the top of the address
   space (where an access wraps to address 0), plus scattered ones that
   land on unmapped pages. *)

module Memory = Protean_arch.Memory
module Protset = Protean_arch.Protset
module Cache = Protean_ooo.Cache
module Config = Protean_ooo.Config

let gen_addr =
  QCheck2.Gen.(
    oneof
      [
        (* around the first few page boundaries (line boundaries too) *)
        map
          (fun (pg, d) ->
            Int64.add (Int64.mul (Int64.of_int pg) 4096L) (Int64.of_int d))
          (pair (int_range 0 3) (int_range (-9) 9));
        (* near Int64.max_int: the page holding the sign boundary *)
        map
          (fun d -> Int64.sub Int64.max_int (Int64.of_int d))
          (int_range 0 16);
        (* the top of the address space: size-8 accesses wrap to 0 *)
        map (fun d -> Int64.sub (-1L) (Int64.of_int d)) (int_range 0 16);
        (* anywhere in a few pages, mostly unaligned *)
        map Int64.of_int (int_range 0 20_000);
      ])

let gen_size = QCheck2.Gen.int_range 1 8
let gen_i64 =
  QCheck2.Gen.(
    map2
      (fun a b ->
        Int64.logxor (Int64.of_int a) (Int64.shift_left (Int64.of_int b) 32))
      int int)

let addr_at a i = Int64.add a (Int64.of_int i)

(* Does [f] hold for any of the [size] bytes at [a]? *)
let any_byte f a size =
  List.exists (fun i -> f (addr_at a i)) (List.init size Fun.id)

(* --- Memory ------------------------------------------------------------ *)

type mem_op =
  | Write of int64 * int * int64
  | Write_string of int64 * string
  | Read of int64 * int
  | Read_string of int64 * int

let gen_mem_op =
  QCheck2.Gen.(
    frequency
      [
        (3, map3 (fun a s v -> Write (a, s, v)) gen_addr gen_size gen_i64);
        ( 1,
          map2
            (fun a s -> Write_string (a, s))
            gen_addr
            (string_size (int_range 0 40)) );
        (3, map2 (fun a s -> Read (a, s)) gen_addr gen_size);
        (1, map2 (fun a n -> Read_string (a, n)) gen_addr (int_range 0 40));
      ])

let show_mem_op = function
  | Write (a, s, v) -> Printf.sprintf "write %Lx %d %Lx" a s v
  | Write_string (a, s) -> Printf.sprintf "write_string %Lx %S" a s
  | Read (a, s) -> Printf.sprintf "read %Lx %d" a s
  | Read_string (a, n) -> Printf.sprintf "read_string %Lx %d" a n

let prop_memory =
  QCheck2.Test.make ~name:"Memory word access == byte reference" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
    QCheck2.Gen.(list_size (int_range 1 60) gen_mem_op)
    (fun ops ->
      let m = Memory.create () in
      let reference : (int64, int) Hashtbl.t = Hashtbl.create 64 in
      let ref_byte a =
        Option.value ~default:0 (Hashtbl.find_opt reference a)
      in
      let ref_read a size =
        let acc = ref 0L in
        for i = size - 1 downto 0 do
          let b = Int64.of_int (ref_byte (addr_at a i)) in
          acc := Int64.logor (Int64.shift_left !acc 8) b
        done;
        !acc
      in
      let ok = ref true in
      List.iter
        (function
          | Write (a, size, v) ->
              Memory.write m a size v;
              for i = 0 to size - 1 do
                let b = Int64.shift_right_logical v (8 * i) in
                Hashtbl.replace reference (addr_at a i)
                  (Int64.to_int (Int64.logand b 0xffL))
              done
          | Write_string (a, s) ->
              Memory.write_string m a s;
              String.iteri
                (fun i c -> Hashtbl.replace reference (addr_at a i) (Char.code c))
                s
          | Read (a, size) ->
              if not (Int64.equal (Memory.read m a size) (ref_read a size))
              then ok := false
          | Read_string (a, n) ->
              let want =
                String.init n (fun i -> Char.chr (ref_byte (addr_at a i)))
              in
              if not (String.equal (Memory.read_string m a n) want) then
                ok := false)
        ops;
      (* Every written byte reads back, one at a time and in words. *)
      Hashtbl.iter
        (fun a b ->
          if Memory.read_byte m a <> b then ok := false;
          if not (Int64.equal (Memory.read m a 8) (ref_read a 8)) then
            ok := false)
        reference;
      !ok)

(* --- Protset ----------------------------------------------------------- *)

type prot_op = Set of int64 * int * bool | Query of int64 * int

let gen_prot_op =
  QCheck2.Gen.(
    frequency
      [
        (1, map3 (fun a s p -> Set (a, s, p)) gen_addr gen_size bool);
        (1, map2 (fun a s -> Query (a, s)) gen_addr gen_size);
      ])

let show_prot_op = function
  | Set (a, s, p) -> Printf.sprintf "set %Lx %d %b" a s p
  | Query (a, s) -> Printf.sprintf "query %Lx %d" a s

let prop_protset =
  QCheck2.Test.make ~name:"Protset ranges == byte reference" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map show_prot_op ops))
    QCheck2.Gen.(list_size (int_range 1 60) gen_prot_op)
    (fun ops ->
      let ps = Protset.create () in
      (* Absent = protected, as in the ProtSet's initial state. *)
      let reference : (int64, bool) Hashtbl.t = Hashtbl.create 64 in
      let ref_prot a =
        Option.value ~default:true (Hashtbl.find_opt reference a)
      in
      let ok = ref true in
      List.iter
        (function
          | Set (a, size, p) ->
              Protset.set_mem ps a size ~protected:p;
              for i = 0 to size - 1 do
                Hashtbl.replace reference (addr_at a i) p
              done
          | Query (a, size) ->
              if Protset.mem_protected ps a size <> any_byte ref_prot a size
              then ok := false)
        ops;
      Hashtbl.iter
        (fun a p ->
          if Protset.mem_byte_protected ps a <> p then ok := false;
          if Protset.mem_protected ps a 1 <> p then ok := false)
        reference;
      !ok)

(* --- Cache protection bits --------------------------------------------- *)

(* The reference keeps one protection byte per byte of each resident
   line (keyed by line number), learning residency from the cache's own
   hit/victim reports: a fill starts all-protected, an eviction
   forgets.  Queries on absent lines answer "protected".  Each access's
   reported set index is checked against [line mod nsets]. *)

type cache_op =
  | Access of int64
  | Set_prot of int64 * int * bool
  | Check of int64 * int

let gen_cache_addr =
  QCheck2.Gen.(
    oneof
      [
        gen_addr;
        (* conflict-heavy: a few lines that map to the same sets *)
        map2
          (fun k d -> Int64.of_int ((k * 1024) + 60 + d))
          (int_range 0 7) (int_range 0 8);
      ])

let gen_cache_op =
  QCheck2.Gen.(
    frequency
      [
        (2, map (fun a -> Access a) gen_cache_addr);
        ( 2,
          map3
            (fun a s p -> Set_prot (a, s, p))
            gen_cache_addr gen_size bool );
        (2, map2 (fun a s -> Check (a, s)) gen_cache_addr gen_size);
      ])

let show_cache_op = function
  | Access a -> Printf.sprintf "access %Lx" a
  | Set_prot (a, s, p) -> Printf.sprintf "set %Lx %d %b" a s p
  | Check (a, s) -> Printf.sprintf "check %Lx %d" a s

let cache_prop (cfg : Config.cache_cfg) name =
  QCheck2.Test.make ~name ~count:300
    ~print:(fun ops -> String.concat "; " (List.map show_cache_op ops))
    QCheck2.Gen.(list_size (int_range 1 80) gen_cache_op)
    (fun ops ->
      let c = Cache.create cfg in
      let nsets = Config.cache_sets cfg in
      let line_no a = Int64.shift_right_logical a 6 in
      let off a = Int64.to_int (Int64.logand a 63L) in
      let lines : (int64, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (function
          | Access a ->
              let hit = Cache.access c a in
              if hit <> Hashtbl.mem lines (line_no a) then ok := false;
              if
                Cache.last_set c
                <> Int64.to_int (Int64.rem (line_no a) (Int64.of_int nsets))
              then ok := false;
              if not hit then begin
                (match Cache.last_evicted c with
                | Some la -> Hashtbl.remove lines (line_no la)
                | None -> ());
                Hashtbl.replace lines (line_no a) (Bytes.make 64 '\001')
              end
          | Set_prot (a, size, p) ->
              Cache.set_protection c a size ~protected:p;
              for i = 0 to size - 1 do
                let b = addr_at a i in
                match Hashtbl.find_opt lines (line_no b) with
                | Some l -> Bytes.set l (off b) (if p then '\001' else '\000')
                | None -> ()
              done
          | Check (a, size) ->
              let byte_prot b =
                match Hashtbl.find_opt lines (line_no b) with
                | Some l -> Bytes.get l (off b) = '\001'
                | None -> true
              in
              if Cache.protected_bytes c a size <> any_byte byte_prot a size
              then ok := false)
        ops;
      !ok)

(* 1 KiB, 2-way, 64-byte lines: 8 sets (a power of two, masked). *)
let prop_cache_pow2 =
  cache_prop
    { Config.size_kib = 1; ways = 2; line = 64; latency = 1 }
    "Cache protection == byte reference (8 sets)"

(* 3 KiB, 2-way: 24 sets, the [mod] set-index path (like the 40960-set L3). *)
let prop_cache_mod =
  cache_prop
    { Config.size_kib = 3; ways = 2; line = 64; latency = 1 }
    "Cache protection == byte reference (24 sets)"

let tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_memory; prop_protset; prop_cache_pow2; prop_cache_mod ]
