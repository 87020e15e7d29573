(* Property tests for the packed bitset: every operation must agree
   with the obvious [Set.Make(Int)] reference implementation, and the
   wire codec must round-trip bit-for-bit. The query engine's
   correctness rests on these — a wrong word-wise subset test would
   silently skew every completeness number. *)

module Bitset = Core.Perf.Bitset
module IntSet = Set.Make (Int)

(* --- generators -------------------------------------------------------- *)

(* Universe sizes straddling the word boundaries (63 bits per word on
   64-bit OCaml): empty tail, exactly one word, one word plus a bit. *)
let gen_universe = QCheck2.Gen.oneof
    [ QCheck2.Gen.int_range 1 10;
      QCheck2.Gen.int_range 60 70;
      QCheck2.Gen.int_range 120 200 ]

let gen_elems u = QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 (u - 1)))

(* one universe, two element lists over it: the binary-op generator *)
let gen_pair =
  QCheck2.Gen.(
    let* u = gen_universe in
    let* a = gen_elems u in
    let* b = gen_elems u in
    return (u, a, b))

let print_pair (u, a, b) =
  Printf.sprintf "u=%d a=[%s] b=[%s]" u
    (String.concat ";" (List.map string_of_int a))
    (String.concat ";" (List.map string_of_int b))

let bits u l = Bitset.of_list u l
let set l = IntSet.of_list l

let same_members b s =
  Bitset.to_sorted_array b = Array.of_list (IntSet.elements s)

(* --- properties -------------------------------------------------------- *)

let prop_membership =
  QCheck2.Test.make ~count:300 ~name:"mem/cardinal/is_empty vs Set"
    ~print:print_pair gen_pair (fun (u, a, _) ->
      let b = bits u a and s = set a in
      Bitset.cardinal b = IntSet.cardinal s
      && Bitset.is_empty b = IntSet.is_empty s
      && List.for_all (fun i -> Bitset.mem b i = IntSet.mem i s)
           (List.init u Fun.id)
      && (* ids outside the universe are absent, not an error *)
      not (Bitset.mem b u) && not (Bitset.mem b (u + 100)))

let prop_add_remove =
  QCheck2.Test.make ~count:300 ~name:"add/remove vs Set" ~print:print_pair
    gen_pair (fun (u, a, b) ->
      let bs = bits u a and s = ref (set a) in
      List.for_all
        (fun i ->
          if IntSet.mem i !s then begin
            Bitset.remove bs i;
            s := IntSet.remove i !s
          end
          else begin
            Bitset.add bs i;
            s := IntSet.add i !s
          end;
          same_members bs !s)
        b)

let prop_algebra =
  QCheck2.Test.make ~count:300 ~name:"inter/union/subset/equal vs Set"
    ~print:print_pair gen_pair (fun (u, a, b) ->
      let ba = bits u a and bb = bits u b in
      let sa = set a and sb = set b in
      same_members (Bitset.inter ba bb) (IntSet.inter sa sb)
      && same_members (Bitset.union ba bb) (IntSet.union sa sb)
      && Bitset.subset ba bb = IntSet.subset sa sb
      && Bitset.subset (Bitset.inter ba bb) ba
      && Bitset.subset ba (Bitset.union ba bb)
      && Bitset.equal ba bb = IntSet.equal sa sb
      && (* the operands survive the fresh-result operations *)
      same_members ba sa && same_members bb sb)

let prop_union_into =
  QCheck2.Test.make ~count:300 ~name:"union_into accumulates"
    ~print:print_pair gen_pair (fun (u, a, b) ->
      let into = bits u a and src = bits u b in
      Bitset.union_into ~into src;
      same_members into (IntSet.union (set a) (set b))
      && same_members src (set b))

let prop_iter_ascending =
  QCheck2.Test.make ~count:300 ~name:"iter/fold ascending" ~print:print_pair
    gen_pair (fun (u, a, _) ->
      let b = bits u a in
      let seen = ref [] in
      Bitset.iter (fun i -> seen := i :: !seen) b;
      let via_iter = List.rev !seen in
      let via_fold = List.rev (Bitset.fold (fun i acc -> i :: acc) b []) in
      via_iter = IntSet.elements (set a) && via_fold = via_iter)

let prop_bytes_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"of_bytes ∘ to_bytes = id"
    ~print:print_pair gen_pair (fun (u, a, _) ->
      let b = bits u a in
      let wire = Bitset.to_bytes b in
      String.length wire = (u + 7) / 8
      &&
      match Bitset.of_bytes u wire with
      | Error _ -> false
      | Ok b' -> Bitset.equal b b' && Bitset.key b = Bitset.key b')

let prop_key_iff_equal =
  QCheck2.Test.make ~count:300 ~name:"key equal iff sets equal"
    ~print:print_pair gen_pair (fun (u, a, b) ->
      let ba = bits u a and bb = bits u b in
      (Bitset.key ba = Bitset.key bb) = IntSet.equal (set a) (set b))

(* --- golden edge cases -------------------------------------------------- *)

let test_word_boundaries () =
  (* exercise the exact bit positions where an off-by-one in the word
     index or the tail mask would bite *)
  List.iter
    (fun u ->
      let b = Bitset.create u in
      Bitset.add b 0;
      Bitset.add b (u - 1);
      Alcotest.(check int) (Printf.sprintf "u=%d cardinal" u)
        (if u = 1 then 1 else 2)
        (Bitset.cardinal b);
      Alcotest.(check bool) "low bit" true (Bitset.mem b 0);
      Alcotest.(check bool) "high bit" true (Bitset.mem b (u - 1));
      let full = Bitset.of_list u (List.init u Fun.id) in
      Alcotest.(check int) "full cardinal" u (Bitset.cardinal full);
      Alcotest.(check bool) "subset of full" true (Bitset.subset b full))
    [ 1; 62; 63; 64; 126; 127 ]

(* [iter]/[fold] index each set bit in constant time; the positions
   where that index is easiest to get wrong are the word's first bit,
   its last two (bit 62 is the native int's sign bit) and the first
   bit of the next word. *)
let test_iter_bit_positions () =
  let check u ids =
    let b = Bitset.of_list u ids in
    let name =
      Printf.sprintf "u=%d %s" u (String.concat "," (List.map string_of_int ids))
    in
    Alcotest.(check (list int)) (name ^ " iter") ids
      (List.rev (Bitset.fold (fun i acc -> i :: acc) b []));
    Alcotest.(check (array int)) (name ^ " to_sorted_array") (Array.of_list ids)
      (Bitset.to_sorted_array b);
    match Bitset.of_bytes u (Bitset.to_bytes b) with
    | Ok b' -> Alcotest.(check bool) (name ^ " bytes") true (Bitset.equal b b')
    | Error msg -> Alcotest.fail msg
  in
  List.iter (fun i -> check 63 [ i ]) [ 0; 61; 62 ];
  check 63 [ 0; 61; 62 ];
  check 126 [ 63 ];
  check 126 [ 0; 61; 62; 63; 124; 125 ];
  check 126 (List.init 126 Fun.id)

let test_of_bytes_rejects () =
  let b = Bitset.of_list 10 [ 0; 9 ] in
  let wire = Bitset.to_bytes b in
  (match Bitset.of_bytes 10 (wire ^ "\x00") with
   | Ok _ -> Alcotest.fail "long input accepted"
   | Error _ -> ());
  (match Bitset.of_bytes 10 "" with
   | Ok _ -> Alcotest.fail "short input accepted"
   | Error _ -> ());
  (* a set bit beyond the universe in the final partial byte *)
  match Bitset.of_bytes 10 "\x00\xff" with
  | Ok _ -> Alcotest.fail "out-of-universe bits accepted"
  | Error _ -> ()

let test_add_out_of_universe () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "add past universe"
    (Invalid_argument "Bitset.add: out of universe") (fun () ->
      Bitset.add b 10)

let () =
  Alcotest.run "bitset"
    [ ( "vs-set-reference",
        List.map QCheck_alcotest.to_alcotest
          [ prop_membership; prop_add_remove; prop_algebra;
            prop_union_into; prop_iter_ascending; prop_bytes_roundtrip;
            prop_key_iff_equal ] );
      ( "edges",
        [ Alcotest.test_case "word boundaries" `Quick test_word_boundaries;
          Alcotest.test_case "iter bit positions" `Quick test_iter_bit_positions;
          Alcotest.test_case "of_bytes rejects" `Quick test_of_bytes_rejects;
          Alcotest.test_case "add out of universe" `Quick
            test_add_out_of_universe ] )
    ]
