(** Persistent snapshots of an analyzed world (the analyze-once /
    query-many layer). A snapshot serializes everything the query and
    metrics layers consume — package rows, binary rows with their
    footprints, popcon weights, and the pipeline's quarantine stats —
    into a versioned binary wire format:

    {v
      offset  size  field
      0       8     magic "LAPISNAP"
      8       4     format version (u32 LE)
      12      16    MD5 of the payload
      28      8     payload length (u64 LE)
      36      -     payload
    v}

    The payload is a flat sequence of zigzag-LEB128 varints, raw
    strings and IEEE-754 bit patterns; every multi-byte integer is
    little-endian. Loading re-derives the store's hash indexes from
    the rows, so a loaded store is indistinguishable from the one the
    pipeline built (the test suite checks metric-for-metric equality).

    Format 2 prefixes the rows with an {b API dictionary} — every
    distinct API in the snapshot, written once in a deterministic
    first-seen order — and encodes every API set (package
    requirement sets, binary footprints) as a {!Lapis_perf.Bitset}
    over that dictionary: one bit per dictionary entry instead of a
    re-serialized API per element. The dictionary order is a pure
    function of the rows, so decode → re-encode reproduces the file
    byte for byte.

    Every row also carries its {b temporal attribution}: the
    init-phase and serving-phase API sets of each package
    ([pr_init]/[pr_serving]) and binary ([br_init]/[br_serving]),
    encoded as dictionary bitsets like every other set. Only the
    formats this build writes — row format 6 and delta format 5 —
    load; older row formats (1–3) read as [Unsupported_version].

    Decoding never raises: stale, truncated or corrupted files come
    back as a structured {!error}, following the taxonomy discipline
    of {!Lapis_elf.Reader}. The payload digest makes corruption
    detection O(n) before any structural decoding happens, and the
    [source_key] in the metadata keys the generator identity
    (config + seed) so a cache can tell a stale snapshot from a
    current one without regenerating anything. *)

open Lapis_apidb
module P = Lapis_distro.Package
module Footprint = Lapis_analysis.Footprint
module Classify = Lapis_elf.Classify

let magic = "LAPISNAP"

(* The version line shares one numbering space with the sibling
   formats: version 6 is the row snapshot decoded here, version 4 is
   the query engine's mmap-able index image, version 5 is a delta
   snapshot that can only be decoded against its base (see
   [apply_delta]). Versions 1-3 were earlier row formats; this build
   no longer writes or reads them. *)
let format_version = 6
let delta_version = 5
let image_version = 4  (* owned by the query engine's mapped loader *)
let header_len = 8 + 4 + 16 + 8

type meta = {
  version : int;
  seed : int;  (** generator seed the corpus came from *)
  n_packages : int;
  total_installs : int;
  source_key : string;
      (** hex digest of the generator identity (config + seed): the
          snapshot invalidation rule *)
  release : int;
      (** evolution release the world was at; 0 for formats that
          predate the living-distribution work (the only release they
          could have been written from) *)
}

type t = {
  meta : meta;
  store : Store.t;
  rejects : (string * int) list;  (** quarantine counters of the run *)
}

type error =
  | Not_snapshot
  | Unsupported_version of int
  | Truncated of string
  | Digest_mismatch
  | Corrupt of string
  | Io of string
  | Needs_base of string
  | Base_mismatch of string * string

let kind_name = function
  | Not_snapshot -> "not-snapshot"
  | Unsupported_version _ -> "unsupported-version"
  | Truncated _ -> "truncated"
  | Digest_mismatch -> "digest-mismatch"
  | Corrupt _ -> "corrupt"
  | Io _ -> "io"
  | Needs_base _ -> "needs-base"
  | Base_mismatch _ -> "base-mismatch"

let pp_error ppf = function
  | Not_snapshot -> Fmt.pf ppf "not a lapis snapshot (bad magic)"
  | Unsupported_version v ->
    Fmt.pf ppf "unsupported snapshot version %d (this build reads %d)" v
      format_version
  | Truncated what -> Fmt.pf ppf "truncated snapshot: %s" what
  | Digest_mismatch -> Fmt.pf ppf "payload digest mismatch (corrupted file)"
  | Corrupt what -> Fmt.pf ppf "corrupt snapshot: %s" what
  | Io msg -> Fmt.pf ppf "snapshot i/o error: %s" msg
  | Needs_base digest ->
    Fmt.pf ppf
      "delta snapshot: needs its base snapshot (digest %s) to decode"
      digest
  | Base_mismatch (expected, got) ->
    Fmt.pf ppf
      "delta snapshot: wrong base (delta expects digest %s, base has %s)"
      expected got

(* The key's release-0 spelling is frozen: every format 1-4 file on
   disk stores exactly this string for its world, so the default must
   keep reproducing it byte for byte. *)
let source_key ?(release = 0) ~seed ~n_packages ~total_installs () =
  let identity =
    if release = 0 then
      Printf.sprintf "lapis-generator:%d:%d:%d" seed n_packages
        total_installs
    else
      Printf.sprintf "lapis-generator:%d:%d:%d:r%d" seed n_packages
        total_installs release
  in
  Digest.to_hex (Digest.string identity)

let of_analyzed (a : Pipeline.analyzed) : t =
  let dist = a.Pipeline.dist in
  let store = a.Pipeline.store in
  {
    meta =
      {
        version = format_version;
        seed = dist.P.seed;
        n_packages = store.Store.n_packages;
        total_installs = dist.P.total_installs;
        (* keyed by the *requested* package count, not the actual row
           count: small corpora are padded up to the generator's fixed
           roster, and [matches] only sees the requested count in the
           config it is handed *)
        source_key =
          source_key ~release:dist.P.release ~seed:dist.P.seed
            ~n_packages:dist.P.n_requested
            ~total_installs:dist.P.total_installs ();
        release = dist.P.release;
      };
    store;
    rejects =
      a.Pipeline.world.Lapis_analysis.Resolve.stats
        .Lapis_analysis.Resolve.rejects;
  }

let matches ?(release = 0) (t : t) (config : Lapis_distro.Generator.config) =
  t.meta.source_key
  = source_key ~release ~seed:config.Lapis_distro.Generator.seed
      ~n_packages:config.Lapis_distro.Generator.n_packages
      ~total_installs:config.Lapis_distro.Generator.total_installs ()

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* Unsigned LEB128 over the native int's bit pattern. *)
let w_varint b n =
  let n = ref n in
  let stop = ref false in
  while not !stop do
    let byte = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char b (Char.chr byte);
      stop := true
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

(* Zigzag so small negative ints stay small on the wire. *)
let w_int b i = w_varint b ((i lsl 1) lxor (i asr 62))

let w_str b s =
  w_varint b (String.length s);
  Buffer.add_string b s

let w_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let w_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let w_list b w items =
  w_varint b (List.length items);
  List.iter (w b) items

let w_array b w items =
  w_varint b (Array.length items);
  Array.iter (w b) items

let w_digest b (d : Digest.t) =
  (* a Digest.t is exactly 16 raw bytes *)
  Buffer.add_string b (d : string)

let w_api b = function
  | Api.Syscall nr ->
    Buffer.add_char b '\000';
    w_int b nr
  | Api.Vop (v, code) ->
    Buffer.add_char b '\001';
    Buffer.add_char b
      (match v with Api.Ioctl -> '\000' | Api.Fcntl -> '\001' | Api.Prctl -> '\002');
    w_int b code
  | Api.Pseudo_file path ->
    Buffer.add_char b '\002';
    w_str b path
  | Api.Libc_sym name ->
    Buffer.add_char b '\003';
    w_str b name

(* A set written element-wise: its count, then each element in
   [Api.Set] order. This is the delta's row identity: equal sets give
   equal bytes whatever the shape of their balanced trees. *)
let w_api_set_elems b set =
  w_varint b (Api.Set.cardinal set);
  Api.Set.iter (w_api b) set

(* The row writers take the set writer [ws] as a parameter: the wire
   form passes the dictionary-bitset writer of [encode_packed], the
   delta's row identity passes [w_api_set_elems]. Both share every
   other byte of the row layout, so no field can drop out of the
   identity. *)
let w_footprint ws b (fp : Footprint.t) =
  ws b fp.Footprint.apis;
  w_varint b (Footprint.String_set.cardinal fp.Footprint.imports);
  Footprint.String_set.iter (w_str b) fp.Footprint.imports;
  w_int b fp.Footprint.unresolved_sites;
  w_int b fp.Footprint.syscall_sites

let w_class b = function
  | Classify.Elf_static -> Buffer.add_char b '\000'
  | Classify.Elf_dynamic -> Buffer.add_char b '\001'
  | Classify.Elf_shared_lib -> Buffer.add_char b '\002'
  | Classify.Script interp ->
    Buffer.add_char b '\003';
    (match interp with
     | Classify.Dash -> Buffer.add_char b '\000'
     | Classify.Bash -> Buffer.add_char b '\001'
     | Classify.Python -> Buffer.add_char b '\002'
     | Classify.Perl -> Buffer.add_char b '\003'
     | Classify.Ruby -> Buffer.add_char b '\004'
     | Classify.Other_interp s ->
       Buffer.add_char b '\005';
       w_str b s)
  | Classify.Data -> Buffer.add_char b '\004'

let w_pkg_row ws b (p : Store.pkg_row) =
  w_str b p.Store.pr_name;
  w_int b p.Store.pr_installs;
  w_float b p.Store.pr_prob;
  w_list b w_str p.Store.pr_deps;
  w_bool b p.Store.pr_essential;
  ws b p.Store.pr_apis;
  ws b p.Store.pr_apis_elf;
  ws b p.Store.pr_init;
  ws b p.Store.pr_serving

let w_bin_row ws b (r : Store.bin_row) =
  w_str b r.Store.br_path;
  w_str b r.Store.br_package;
  w_class b r.Store.br_class;
  w_digest b r.Store.br_digest;
  w_footprint ws b r.Store.br_direct;
  w_footprint ws b r.Store.br_resolved;
  ws b r.Store.br_init;
  ws b r.Store.br_serving

let w_rejects b rejects =
  w_list b
    (fun b (kind, n) ->
      w_str b kind;
      w_int b n)
    rejects

let w_meta b (m : meta) =
  w_int b m.seed;
  w_int b m.n_packages;
  w_int b m.total_installs;
  w_str b m.source_key;
  w_int b m.release

(* The format-2 encoder, framed with the shared header discipline: a
   payload of [head], the API dictionary, then everything [body]
   writes, with every API set as its bitset over the dictionary
   universe, length-prefixed (the length is fixed by the universe, but
   the prefix keeps the row format self-delimiting).

   One walk: [body] hands each set to the set writer it is given,
   which interns the elements on first sight and records in one varint
   buffer where the set goes, its size and its ids. The dictionary is
   therefore in the order the rows meet their APIs (packages first,
   then binaries, each set in [Api.Set] order), a pure function of the
   rows, which is what makes decode -> re-encode byte-identical. The
   output size is then known, so the frame is allocated once and
   stitched together in place, each set's bits set straight from its
   ids. *)
let encode_packed ~version ~head body =
  let ids = Api.Tbl.create 4096 in
  let apis = ref [] and n_apis = ref 0 in
  let sets = Buffer.create (1 lsl 16) and n_sets = ref 0 in
  let intern api =
    match Api.Tbl.find ids api with
    | id -> id
    | exception Not_found ->
      let id = !n_apis in
      Api.Tbl.add ids api id;
      apis := api :: !apis;
      incr n_apis;
      id
  in
  let w_set b set =
    w_varint sets (Buffer.length b);
    incr n_sets;
    w_varint sets (Api.Set.cardinal set);
    Api.Set.iter (fun api -> w_varint sets (intern api)) set
  in
  let b = Buffer.create (1 lsl 20) in
  body w_set b;
  let prefix = Buffer.create 4096 in
  head prefix;
  w_varint prefix !n_apis;
  List.iter (w_api prefix) (List.rev !apis);
  let nbytes = (!n_apis + 7) / 8 in
  let set_len = Buffer.create 4 in
  w_varint set_len nbytes;
  let payload_len =
    Buffer.length prefix + Buffer.length b
    + (!n_sets * (Buffer.length set_len + nbytes))
  in
  let out = Bytes.make (header_len + payload_len) '\000' in
  let o = ref header_len in
  let blit src from len =
    Buffer.blit src from out !o len;
    o := !o + len
  in
  blit prefix 0 (Buffer.length prefix);
  let pos = ref 0 in
  let next () =
    let acc = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      let byte = Char.code (Buffer.nth sets !pos) in
      incr pos;
      acc := !acc lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      more := byte land 0x80 <> 0
    done;
    !acc
  in
  let from = ref 0 in
  while !pos < Buffer.length sets do
    let cut = next () in
    blit b !from (cut - !from);
    from := cut;
    blit set_len 0 (Buffer.length set_len);
    for _ = 1 to next () do
      let id = next () in
      let j = !o + (id lsr 3) in
      Bytes.set out j
        (Char.unsafe_chr (Char.code (Bytes.get out j) lor (1 lsl (id land 7))))
    done;
    o := !o + nbytes
  done;
  blit b !from (Buffer.length b - !from);
  Bytes.blit_string magic 0 out 0 (String.length magic);
  Bytes.set_int32_le out 8 (Int32.of_int version);
  Bytes.blit_string (Digest.subbytes out header_len payload_len) 0 out 12 16;
  Bytes.set_int64_le out 28 (Int64.of_int payload_len);
  Bytes.unsafe_to_string out

let to_string (t : t) : string =
  encode_packed ~version:format_version
    ~head:(fun b -> w_meta b t.meta)
    (fun ws b ->
      w_array b (w_pkg_row ws) t.store.Store.packages;
      w_list b (w_bin_row ws) t.store.Store.bins;
      w_rejects b t.rejects)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Fail of error

type cursor = { buf : string; mutable pos : int; stop : int }

let need c n what =
  if c.pos + n > c.stop then raise (Fail (Truncated what))

let r_byte c what =
  need c 1 what;
  let v = Char.code c.buf.[c.pos] in
  c.pos <- c.pos + 1;
  v

let r_varint c what =
  let shift = ref 0 and acc = ref 0 and stop = ref false in
  while not !stop do
    if !shift > 62 then raise (Fail (Corrupt ("varint overflow in " ^ what)));
    let byte = r_byte c what in
    acc := !acc lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then stop := true
  done;
  !acc

let r_int c what =
  let z = r_varint c what in
  (z lsr 1) lxor (- (z land 1))

let r_str c what =
  let n = r_varint c what in
  need c n what;
  let s = String.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let r_float c what =
  need c 8 what;
  let v = Int64.float_of_bits (String.get_int64_le c.buf c.pos) in
  c.pos <- c.pos + 8;
  v

let r_bool c what = r_byte c what <> 0

(* Read exactly [n] elements left to right — the cursor is stateful,
   so the evaluation order must be the wire order. *)
let r_list c r what =
  let n = r_varint c what in
  let rec go acc k = if k = 0 then List.rev acc else go (r c :: acc) (k - 1) in
  go [] n

let r_digest c what : Digest.t =
  need c 16 what;
  let s = String.sub c.buf c.pos 16 in
  c.pos <- c.pos + 16;
  s

let r_api c =
  match r_byte c "api" with
  | 0 -> Api.Syscall (r_int c "api.syscall")
  | 1 ->
    let v =
      match r_byte c "api.vector" with
      | 0 -> Api.Ioctl
      | 1 -> Api.Fcntl
      | 2 -> Api.Prctl
      | t -> raise (Fail (Corrupt (Printf.sprintf "unknown vector tag %d" t)))
    in
    Api.Vop (v, r_int c "api.vop")
  | 2 -> Api.Pseudo_file (r_str c "api.pseudo")
  | 3 -> Api.Libc_sym (r_str c "api.libc")
  | t -> raise (Fail (Corrupt (Printf.sprintf "unknown api tag %d" t)))

(* A set is a bitset over the dictionary read earlier. *)
let r_api_set (dict : Api.t array) c =
  let bytes = r_str c "api-set.bits" in
  match Lapis_perf.Bitset.of_bytes (Array.length dict) bytes with
  | Error msg -> raise (Fail (Corrupt ("api-set bitset: " ^ msg)))
  | Ok bits ->
    Lapis_perf.Bitset.fold (fun id acc -> Api.Set.add dict.(id) acc) bits
      Api.Set.empty

let r_footprint read_set c : Footprint.t =
  let apis = read_set c in
  let n_imports = r_varint c "imports" in
  let rec go acc k =
    if k = 0 then acc
    else go (Footprint.String_set.add (r_str c "import") acc) (k - 1)
  in
  let imports = go Footprint.String_set.empty n_imports in
  let unresolved_sites = r_int c "unresolved-sites" in
  let syscall_sites = r_int c "syscall-sites" in
  { Footprint.apis; imports; unresolved_sites; syscall_sites }

let r_class c =
  match r_byte c "class" with
  | 0 -> Classify.Elf_static
  | 1 -> Classify.Elf_dynamic
  | 2 -> Classify.Elf_shared_lib
  | 3 ->
    Classify.Script
      (match r_byte c "interpreter" with
       | 0 -> Classify.Dash
       | 1 -> Classify.Bash
       | 2 -> Classify.Python
       | 3 -> Classify.Perl
       | 4 -> Classify.Ruby
       | 5 -> Classify.Other_interp (r_str c "interpreter.other")
       | t ->
         raise (Fail (Corrupt (Printf.sprintf "unknown interpreter tag %d" t))))
  | 4 -> Classify.Data
  | t -> raise (Fail (Corrupt (Printf.sprintf "unknown class tag %d" t)))

let r_pkg_row read_set c : Store.pkg_row =
  let pr_name = r_str c "pkg.name" in
  let pr_installs = r_int c "pkg.installs" in
  let pr_prob = r_float c "pkg.prob" in
  let pr_deps = r_list c (fun c -> r_str c "pkg.dep") "pkg.deps" in
  let pr_essential = r_bool c "pkg.essential" in
  let pr_apis = read_set c in
  let pr_apis_elf = read_set c in
  let pr_init = read_set c in
  let pr_serving = read_set c in
  { Store.pr_name; pr_installs; pr_prob; pr_deps; pr_essential; pr_apis;
    pr_apis_elf; pr_init; pr_serving }

let r_bin_row read_set c : Store.bin_row =
  let br_path = r_str c "bin.path" in
  let br_package = r_str c "bin.package" in
  let br_class = r_class c in
  let br_digest = r_digest c "bin.digest" in
  let br_direct = r_footprint read_set c in
  let br_resolved = r_footprint read_set c in
  let br_init = read_set c in
  let br_serving = read_set c in
  { Store.br_path; br_package; br_class; br_digest; br_direct; br_resolved;
    br_init; br_serving }

(* Validate the framing shared by the row and delta formats — magic,
   version, payload digest — and hand back a cursor over the payload.
   Raises [Fail]; callers route on the returned version. *)
let open_payload (s : string) : cursor * int =
  (* judge the magic on whatever prefix is present, so data from a
     different format reads as [Not_snapshot] even when it is also
     shorter than our header, and only genuine prefixes of a real
     snapshot read as [Truncated] *)
  let prefix = min 8 (String.length s) in
  if String.sub s 0 prefix <> String.sub magic 0 prefix then
    raise (Fail Not_snapshot);
  if String.length s < header_len then raise (Fail (Truncated "header"));
  let version = Int32.to_int (String.get_int32_le s 8) in
  (* index images share the magic but not this header layout, so they
     must be refused on the version alone — reading our digest/length
     fields from one would misreport the damage *)
  if version <> format_version && version <> delta_version then
    raise (Fail (Unsupported_version version));
  let stored_digest = String.sub s 12 16 in
  let payload_len = Int64.to_int (String.get_int64_le s 28) in
  if payload_len < 0 || header_len + payload_len > String.length s then
    raise (Fail (Truncated "payload"));
  if header_len + payload_len < String.length s then
    raise (Fail (Corrupt "trailing bytes after payload"));
  if Digest.substring s header_len payload_len <> stored_digest then
    raise (Fail Digest_mismatch);
  ({ buf = s; pos = header_len; stop = header_len + payload_len }, version)

type r_meta = {
  rm_seed : int;
  rm_n_packages : int;
  rm_total_installs : int;
  rm_source_key : string;
  rm_release : int;
}

let r_meta c =
  let rm_seed = r_int c "meta.seed" in
  let rm_n_packages = r_int c "meta.n-packages" in
  let rm_total_installs = r_int c "meta.total-installs" in
  let rm_source_key = r_str c "meta.source-key" in
  let rm_release = r_int c "meta.release" in
  { rm_seed; rm_n_packages; rm_total_installs; rm_source_key; rm_release }

let of_string (s : string) : (t, error) result =
  try
    let c, version = open_payload s in
    let m = r_meta c in
    if version = delta_version then
      (* a delta cannot be decoded standalone: report which base it
         wants so the caller can fetch it *)
      raise (Fail (Needs_base (Digest.to_hex (r_digest c "delta.base"))));
    let seed = m.rm_seed in
    let n_packages = m.rm_n_packages in
    let total_installs = m.rm_total_installs in
    let skey = m.rm_source_key in
    let dict = Array.of_list (r_list c r_api "api-dictionary") in
    let read_set = r_api_set dict in
    let packages = r_list c (r_pkg_row read_set) "packages" in
    let bins = r_list c (r_bin_row read_set) "binaries" in
    let rejects =
      r_list c
        (fun c ->
          let kind = r_str c "reject.kind" in
          let n = r_int c "reject.count" in
          (kind, n))
        "rejects"
    in
    if c.pos <> c.stop then raise (Fail (Corrupt "payload underrun"));
    if List.length packages <> n_packages then
      raise (Fail (Corrupt "package count disagrees with metadata"));
    let store = Store.build ~packages ~bins ~total_installs in
    Ok
      {
        meta =
          { version; seed; n_packages; total_installs; source_key = skey;
            release = m.rm_release };
        store;
        rejects;
      }
  with Fail e -> Error e

(* ------------------------------------------------------------------ *)
(* Delta snapshots (format 5)                                          *)
(* ------------------------------------------------------------------ *)

(* A delta records a new world against a base snapshot it names by
   digest (MD5 of the base's full serialization). Both row sequences
   are written as positional instruction streams — [keep i] reuses the
   base's i-th row verbatim, [new row] carries a full row — so an
   arbitrary mix of unchanged, changed, added, removed and reordered
   rows reproduces exactly, and [to_string (apply_delta base d)] is
   byte-identical to the serialization of the world the delta was made
   from. Rows a release leaves untouched dominate, so a delta is
   orders of magnitude smaller than the full snapshot. The delta
   carries its own API dictionary covering only the rows it ships. *)

let tag_keep = '\000'
let tag_new = '\001'

let to_delta_string ~(base : t) (cur : t) : string =
  (* Row identity is equality of the element-wise row encoding (every
     set written by [w_api_set_elems]): the encoding is injective and
     prefix-free, so equal encodings mean equal fields (floats by bit
     pattern, as [w_float] writes them) and equal sets, whatever the
     shape of their balanced trees. The base rows are indexed by the
     MD5 of their encoding, so 16 bytes per row are kept. A current
     row whose digest hits is confirmed byte for byte against each
     candidate's re-encoding, lowest index first, and keeps just its
     lookup result. *)
  let enc = Buffer.create 4096 in
  (* [encoded.(k)] holds the encoding [encode k] wrote last *)
  let encoded = [| Bytes.create 4096; Bytes.create 4096 |] in
  let encode k w r =
    Buffer.clear enc;
    w w_api_set_elems enc r;
    let n = Buffer.length enc in
    if Bytes.length encoded.(k) < n then encoded.(k) <- Bytes.create (2 * n);
    Buffer.blit enc 0 encoded.(k) 0 n;
    n
  in
  let same n =
    let a = encoded.(0) and b = encoded.(1) in
    let rec go i =
      if i + 8 <= n then
        Int64.equal (Bytes.get_int64_ne a i) (Bytes.get_int64_ne b i) && go (i + 8)
      else i >= n || (Bytes.get a i = Bytes.get b i && go (i + 1))
    in
    go 0
  in
  let instrs w base_rows cur_rows =
    let by_digest = Hashtbl.create (2 * Array.length base_rows) in
    (* added last to first, so [find_all] lists the lowest index first *)
    for i = Array.length base_rows - 1 downto 0 do
      let n = encode 0 w base_rows.(i) in
      Hashtbl.add by_digest (Digest.subbytes encoded.(0) 0 n) i
    done;
    Array.map
      (fun r ->
        let n = encode 0 w r in
        let candidates = Hashtbl.find_all by_digest (Digest.subbytes encoded.(0) 0 n) in
        (r, List.find_opt (fun i -> encode 1 w base_rows.(i) = n && same n) candidates))
      cur_rows
  in
  let pkgs = instrs w_pkg_row base.store.Store.packages cur.store.Store.packages in
  let bins =
    instrs w_bin_row
      (Array.of_list base.store.Store.bins)
      (Array.of_list cur.store.Store.bins)
  in
  let base_digest = Digest.string (to_string base) in
  (* the dictionary covers only the rows the delta ships *)
  encode_packed ~version:delta_version
    ~head:(fun b ->
      w_meta b cur.meta;
      w_digest b base_digest)
    (fun ws b ->
      let w_instr w b (r, hit) =
        match hit with
        | Some i ->
          Buffer.add_char b tag_keep;
          w_varint b i
        | None ->
          Buffer.add_char b tag_new;
          w ws b r
      in
      w_array b (w_instr w_pkg_row) pkgs;
      w_array b (w_instr w_bin_row) bins;
      w_rejects b cur.rejects)

let apply_delta ~(base : t) (s : string) : (t, error) result =
  try
    let c, version = open_payload s in
    if version <> delta_version then
      raise (Fail (Unsupported_version version));
    let m = r_meta c in
    let want = r_digest c "delta.base-digest" in
    let have = Digest.string (to_string base) in
    if want <> have then
      raise (Fail (Base_mismatch (Digest.to_hex want, Digest.to_hex have)));
    let dict = Array.of_list (r_list c r_api "delta.api-dictionary") in
    let read_set = r_api_set dict in
    let base_pkgs = base.store.Store.packages in
    let base_bins = Array.of_list base.store.Store.bins in
    let r_instr arr r_new what c =
      match r_byte c what with
      | 0 ->
        let i = r_varint c what in
        if i >= Array.length arr then
          raise
            (Fail
               (Corrupt
                  (Printf.sprintf "%s: keep index %d out of range (base has %d)"
                     what i (Array.length arr))));
        arr.(i)
      | 1 -> r_new c
      | t ->
        raise
          (Fail (Corrupt (Printf.sprintf "unknown %s instruction tag %d" what t)))
    in
    let packages =
      r_list c
        (r_instr base_pkgs (r_pkg_row read_set) "delta.pkg")
        "delta.packages"
    in
    let bins =
      r_list c
        (r_instr base_bins (r_bin_row read_set) "delta.bin")
        "delta.binaries"
    in
    let rejects =
      r_list c
        (fun c ->
          let kind = r_str c "reject.kind" in
          let n = r_int c "reject.count" in
          (kind, n))
        "delta.rejects"
    in
    if c.pos <> c.stop then raise (Fail (Corrupt "payload underrun"));
    if List.length packages <> m.rm_n_packages then
      raise (Fail (Corrupt "package count disagrees with metadata"));
    let store =
      Store.build ~packages ~bins ~total_installs:m.rm_total_installs
    in
    Ok
      {
        meta =
          { version = format_version; seed = m.rm_seed;
            n_packages = m.rm_n_packages;
            total_installs = m.rm_total_installs;
            source_key = m.rm_source_key; release = m.rm_release };
        store;
        rejects;
      }
  with Fail e -> Error e

(* Publish [contents] at [path] atomically: write a temp file in the
   same directory, then rename it over [path]. A reader that opened the
   old file keeps reading the old bytes to EOF, and one that opens
   [path] sees either the old file or the new one, never a torn mix.
   [Filename.temp_file] picks a fresh name, so concurrent publishers
   never share a temp file. It creates that file owner-only, so the
   file is recreated exclusively under the name it reserved, with the
   mode a plain [open_out] gives (0o666 less the umask). *)
let write_atomic path contents : (unit, error) result =
  match
    let tmp =
      Filename.temp_file ~temp_dir:(Filename.dirname path)
        (Filename.basename path ^ ".tmp") ""
    in
    Sys.remove tmp;
    (tmp, open_out_gen [ Open_wronly; Open_creat; Open_excl; Open_binary ] 0o666 tmp)
  with
  | exception Sys_error msg -> Error (Io msg)
  | tmp, oc -> (
    match
      output_string oc contents;
      (* a failed final flush must stop the rename *)
      close_out oc;
      Sys.rename tmp path
    with
    | () -> Ok ()
    | exception Sys_error msg ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      Error (Io msg))

let save_delta path ~(base : t) (cur : t) : (unit, error) result =
  write_atomic path (to_delta_string ~base cur)

let load_delta path ~(base : t) : (t, error) result =
  match
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  with
  | s -> Lapis_perf.Stage.time "snapshot-load" (fun () -> apply_delta ~base s)
  | exception Sys_error msg -> Error (Io msg)
  | exception End_of_file -> Error (Io (path ^ ": unexpected end of file"))

let save path (t : t) : (unit, error) result = write_atomic path (to_string t)

let load path : (t, error) result =
  match
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  with
  | s -> Lapis_perf.Stage.time "snapshot-load" (fun () -> of_string s)
  | exception Sys_error msg -> Error (Io msg)
  | exception End_of_file -> Error (Io (path ^ ": unexpected end of file"))

(* Peek at a file's magic + version without decoding: the router that
   lets the CLI send format-4 index images (which share the LAPISNAP
   header but are not row snapshots) to the query engine's mapped
   loader instead of this module's decoder. *)
let file_version path : (int, error) result =
  match
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (min 12 (in_channel_length ic)))
  with
  | s ->
    let prefix = min 8 (String.length s) in
    if String.sub s 0 prefix <> String.sub magic 0 prefix then
      Error Not_snapshot
    else if String.length s < 12 then Error (Truncated "header")
    else Ok (Int32.to_int (String.get_int32_le s 8))
  | exception Sys_error msg -> Error (Io msg)
  | exception End_of_file -> Error (Io (path ^ ": unexpected end of file"))

(* The primitive codecs, re-exported for sibling wire formats (the
   query engine's format-4 image stores its metadata section in the
   same zigzag-LEB128 encoding). *)
module Wire = struct
  type nonrec cursor = cursor = { buf : string; mutable pos : int; stop : int }

  exception Fail = Fail

  let w_varint = w_varint
  let w_int = w_int
  let w_str = w_str
  let w_float = w_float
  let w_api = w_api
  let cursor ?(pos = 0) ?stop buf =
    { buf; pos; stop = Option.value ~default:(String.length buf) stop }
  let r_byte = r_byte
  let r_varint = r_varint
  let r_int = r_int
  let r_str = r_str
  let r_float = r_float
  let r_api = r_api
end
