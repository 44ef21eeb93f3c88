module Value = Ghost_kernel.Value
module Column = Ghost_relation.Column
module Schema = Ghost_relation.Schema
module Predicate = Ghost_relation.Predicate
module Bind = Ghost_sql.Bind
module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Wire = Ghost_device.Device.Wire
module Bloom = Ghost_bloom.Bloom
module Oblivious = Ghost_oblivious.Oblivious

type estimate = {
  est_time_us : float;
  est_candidates : int;
  est_results : int;
  est_ram_bytes : int;
  est_usb_bytes : int;
  breakdown : (string * float) list;
}

let chunk = 256.
let avg_varint_bytes = 1.5

type env = {
  cat : Catalog.t;
  cfg : Device.config;
  fc : Flash.cost;
  plan : Plan.t;
  cache_hit : float;
      (* estimated page-cache hit ratio on the main Flash region; 0.
         without a cache *)
  mutable parts : (string * float) list;
  mutable usb_bytes : int;
  mutable ram_bytes : int;
}

let add env label us = env.parts <- (label, us) :: env.parts

(* Time to stream [bytes] through [chunk]-byte reads off the scratch
   region, which the page cache never fronts. *)
let scratch_read_us env bytes =
  if bytes <= 0. then 0.
  else
    let chunks = Float.max 1. (Float.round (bytes /. chunk)) in
    (chunks *. env.fc.Flash.read_seek_us) +. (bytes *. env.fc.Flash.read_byte_us)

(* Time to stream [bytes] off the main Flash region: cache hits are
   free, so the expected cost is the miss fraction of the uncached
   stream. *)
let read_stream_us ?hit env bytes =
  (1. -. Option.value hit ~default:env.cache_hit) *. scratch_read_us env bytes

(* One small random read (locator, directory entry, SKT row...) off the
   main region. With a cache a hit is free and a miss fills a whole
   frame — the expected cost can exceed the uncached partial read when
   the hit ratio is poor, which is exactly the regime where a tiny
   cache loses. *)
let point_read_us ?hit env bytes =
  let hit = Option.value hit ~default:env.cache_hit in
  if hit > 0. then
    let page = Float.of_int env.cfg.Device.flash_geometry.Flash.page_size in
    (1. -. hit)
    *. (env.fc.Flash.read_seek_us +. (page *. env.fc.Flash.read_byte_us))
  else env.fc.Flash.read_seek_us +. (bytes *. env.fc.Flash.read_byte_us)

(* Time to read [bytes] in order through a paged window, as
   [Exec]'s [Full] scans do: one Flash read per page. *)
let page_stream_us env bytes =
  if bytes <= 0. then 0.
  else
    let page = Float.of_int env.cfg.Device.flash_geometry.Flash.page_size in
    let pages = ceil (bytes /. page) in
    (1. -. env.cache_hit)
    *. ((pages *. env.fc.Flash.read_seek_us) +. (bytes *. env.fc.Flash.read_byte_us))

let write_stream_us env bytes =
  if bytes <= 0. then 0.
  else
    let page = Float.of_int env.cfg.Device.flash_geometry.Flash.page_size in
    let pages = Float.max 1. (ceil (bytes /. page)) in
    (pages *. env.fc.Flash.program_seek_us) +. (bytes *. env.fc.Flash.program_byte_us)

let usb_us env bytes =
  env.usb_bytes <- env.usb_bytes + int_of_float bytes;
  env.cfg.Device.usb_per_message_us
  +. (bytes *. 8. /. env.cfg.Device.usb_mbit_per_s)

let cpu_us env ops = ops /. env.cfg.Device.cpu_mips

(* Per-encoding USB byte predictions: the formulas live next to the
   wire-format definition, the [population] (table cardinality the
   shipped subset was drawn from) fixes the expected varint-delta
   width. Under the default [Verbose] these are exactly the seed's
   fixed-width sizes. Padded modes bypass the wire encoder with
   fixed-width frames rounded up to their public bound, and the model
   follows suit. *)
let ship_bytes env ~n_t m =
  match env.plan.Plan.oblivious with
  | Oblivious.Off ->
    Wire.est_id_list_bytes env.cfg.Device.wire_format
      ~population:(Float.of_int n_t) m
  | Oblivious.Pad ->
    let n = min n_t (int_of_float (ceil m)) in
    4. *. Float.of_int (Oblivious.pad_count ~bound:n_t (max 0 n))
  | Oblivious.Full -> 4. *. Float.of_int n_t

let stream_bytes env ~n_t ~tys n =
  match env.plan.Plan.oblivious with
  | Oblivious.Off ->
    Wire.est_value_stream_bytes env.cfg.Device.wire_format
      ~population:(Float.of_int n_t) ~tys n
  | (Oblivious.Pad | Oblivious.Full) as m ->
    let width =
      List.fold_left
        (fun acc ty -> acc +. Float.of_int (4 + Value.ty_width ty))
        0. tys
    in
    let count =
      match m with
      | Oblivious.Pad ->
        Oblivious.pad_count ~bound:n_t (max 0 (min n_t (int_of_float (ceil n))))
      | Oblivious.Off | Oblivious.Full -> n_t
    in
    width *. Float.of_int count

let sel env (p : Predicate.t) =
  Col_stats.selectivity
    (Catalog.column_stats env.cat ~table:p.Predicate.table ~column:p.Predicate.column)
    p.Predicate.cmp

(* live rows: loaded + inserted - tombstoned, so estimates track the
   logical state between reorganizations *)
let count env table = max 1 (Catalog.live_count env.cat table)

(* Hierarchical-merge overhead: the extra scratch passes unioning [k]
   lists totaling [bytes] needs beyond the final streaming pass. *)
let merge_passes_us env ~k ~bytes =
  let fan = Float.max 2. (Float.of_int env.cfg.Device.ram_budget /. 2. /. chunk) in
  if Float.of_int k <= fan then cpu_us env (Float.of_int k *. 10.)
  else begin
    let passes = ceil (log (Float.of_int k) /. log fan) -. 1. in
    (passes *. (scratch_read_us env bytes +. write_stream_us env bytes))
    +. cpu_us env (bytes /. avg_varint_bytes *. 5.)
  end

(* Traversing one hidden predicate's climbing index at [level]:
   directory binary search + list bytes, then the merge of its lists.
   A delta bitmap ([Plan.delta_bitmap], [bitmap]) reads the lists one
   at a time instead — they are disjoint, so there is no merge pass —
   at one CPU op per id it sets. *)
let hidden_index_us ?(bitmap = false) env ~table (p : Predicate.t) ~level_count =
  let stats = Catalog.column_stats env.cat ~table ~column:p.Predicate.column in
  let distinct = Float.of_int (max 1 (Col_stats.distinct stats)) in
  let s = sel env p in
  let dir_probes = Float.max 1. (log distinct /. log 2.) in
  let list_bytes = s *. Float.of_int level_count *. avg_varint_bytes in
  let matched_values = Float.max 1. (s *. distinct) in
  point_read_us env 40. *. dir_probes
  +. read_stream_us env list_bytes
  +.
  if bitmap then cpu_us env (s *. Float.of_int level_count)
  else merge_passes_us env ~k:(int_of_float matched_values) ~bytes:list_bytes

(* Climbing [m] T-ids to the root: per-id locator chunk read + per-id
   list chunk read(s) + hierarchical merge passes. The executor reads
   through [chunk]-byte buffers, so each id costs at least two chunk
   reads even when its list is tiny. *)
let climb_us env ~table m =
  if table = env.plan.Plan.root || m <= 0. then 0.
  else begin
    let fanout =
      Float.of_int (count env env.plan.Plan.root) /. Float.of_int (count env table)
    in
    let list_bytes = m *. fanout *. avg_varint_bytes in
    let chunk_read = point_read_us env chunk in
    (m *. chunk_read)
    +. Float.max (m *. chunk_read) (read_stream_us env list_bytes)
    +. merge_passes_us env ~k:(int_of_float m) ~bytes:list_bytes
  end

(* Reading [candidates] of [n_root] root rows in id order through a
   [window]-byte reader, as SKT probing and the projection of a root
   hidden column do: dense candidates share the reader's window, so the
   number of Flash reads is the number of windows touched, not the
   number of candidates. [hit] overrides the global cache hit ratio of
   each read. *)
let window_reads_us ?hit env ~window ~n_root ~candidates ~row_bytes =
  if candidates <= 0. || row_bytes <= 0. then 0.
  else begin
    let rows_per_window = Float.max 1. (window /. row_bytes) in
    let n_windows = Float.of_int n_root /. rows_per_window in
    let density = Float.min 1. (candidates /. Float.of_int n_root) in
    let touched =
      Float.min candidates
        (n_windows *. (1. -. Float.pow (1. -. density) rows_per_window))
    in
    touched *. point_read_us ?hit env window
  end

let visible_sel env preds = List.fold_left (fun acc p -> acc *. sel env p) 1. preds

(* Public bound of the result cardinality: the live root count, capped
   by the query's LIMIT (which rides in the spy-visible query text). *)
let emit_bound env =
  let live = count env env.plan.Plan.root in
  match env.plan.Plan.query.Bind.limit with
  | Some l -> max 0 (min l live)
  | None -> live

(* Merge-on-read charge for the delta log: the read amplification is
   the run pages surviving fence skipping plus the (bounded) L0 pages,
   at scratch speed — run pages are recycled constantly, so the cache
   never fronts them — plus the executor's 5 CPU ops per record
   scanned and one per id field it unpacks from a run record. A run's
   value pages count only when the plan reads them
   ([Plan.reads_delta_values]); an id-only scan touches its id pages
   alone. [fraction] is the expected share of the runs' records, and
   so of their pages, a fenced scan touches (1 for an unfenced or
   oblivious scan); a flat log is all L0, always read whole. Also
   returns the records scanned, which the per-record hidden tests are
   priced on. *)
let delta_scan env ~fraction =
  match Catalog.delta env.cat env.plan.Plan.root with
  | None -> (0., 0.)
  | Some log ->
    let page = Float.of_int env.cfg.Device.flash_geometry.Flash.page_size in
    let run_pages =
      if Plan.reads_delta_values env.cat.Catalog.schema env.plan then
        Delta_log.run_pages log
      else Delta_log.run_id_pages log
    in
    let touched =
      (fraction *. Float.of_int run_pages) +. Float.of_int (Delta_log.l0_pages log)
    in
    let run_records = Float.of_int (Delta_log.run_records log) in
    let records =
      Float.of_int (Delta_log.physical_records log) -. ((1. -. fraction) *. run_records)
    in
    let fields =
      Float.of_int (List.length (Schema.subtree env.cat.Catalog.schema env.plan.Plan.root))
    in
    let unpacked = fields *. fraction *. run_records in
    ( scratch_read_us env (touched *. page) +. cpu_us env ((5. *. records) +. unpacked),
      records )

(* Bytes the query-time point-read paths keep going back to: index
   directories (binary searches revisit the top levels constantly),
   SKT rows and hidden column stores. The list blobs are streamed once
   and excluded. *)
let cache_working_set cat =
  let dir i = Ghost_store.Climbing_index.directory_bytes i in
  List.fold_left
    (fun acc (_, (e : Catalog.table_entry)) ->
       acc
       + (match e.Catalog.key_index with Some i -> dir i | None -> 0)
       + List.fold_left (fun a (_, i) -> a + dir i) 0 e.Catalog.attr_indexes
       + List.fold_left
           (fun a (_, cs) -> a + Ghost_store.Column_store.size_bytes cs)
           0 e.Catalog.hidden_columns)
    0 cat.Catalog.entries
  + List.fold_left (fun a (_, s) -> a + Ghost_store.Skt.size_bytes s) 0 cat.Catalog.skts

(* Expected hit ratio of a [frames]-frame cache over that working set —
   the fraction of hot bytes resident at steady state, capped below 1
   because cold misses and log-append invalidations never vanish. *)
let hit_ratio cat (cfg : Device.config) =
  if cfg.Device.page_cache_frames <= 0 then 0.
  else begin
    let page = cfg.Device.flash_geometry.Flash.page_size in
    let ws = max page (cache_working_set cat) in
    Float.min 0.95
      (Float.of_int (cfg.Device.page_cache_frames * page) /. Float.of_int ws)
  end

(* The same over the index directories alone: a counted plan
   ([Plan.count_source]) reads nothing else, so the list, SKT and column
   pages it never touches do not compete for its frames. A first step
   toward a ratio fed by the pages a plan actually revisits. *)
let directory_hit_ratio cat (cfg : Device.config) =
  if cfg.Device.page_cache_frames <= 0 then 0.
  else begin
    let page = cfg.Device.flash_geometry.Flash.page_size in
    let dir i = Ghost_store.Climbing_index.directory_bytes i in
    let ws =
      List.fold_left
        (fun acc (_, (e : Catalog.table_entry)) ->
           acc
           + (match e.Catalog.key_index with Some i -> dir i | None -> 0)
           + List.fold_left (fun a (_, i) -> a + dir i) 0 e.Catalog.attr_indexes)
        0 cat.Catalog.entries
    in
    Float.min 0.95
      (Float.of_int (cfg.Device.page_cache_frames * page) /. Float.of_int (max page ws))
  end

(* Summing one hidden predicate's directory counts ([Plan.count_source]):
   the binary search of [hidden_index_us], then the matched entries'
   locators read off the directory in one run and one CPU op each — no
   list byte, no merge. Behind a cache a missed page of the run fills a
   whole frame, as in [point_read_us], and the rest of the page hits;
   the hit ratio is the directories' own ([directory_hit_ratio]). *)
let count_index_us env ~table (p : Predicate.t) =
  let stats = Catalog.column_stats env.cat ~table ~column:p.Predicate.column in
  let distinct = Float.of_int (max 1 (Col_stats.distinct stats)) in
  let dir_probes = Float.max 1. (log distinct /. log 2.) in
  let matched_values = Float.max 1. (sel env p *. distinct) in
  let entry_bytes =
    match Catalog.attr_index env.cat ~table ~column:p.Predicate.column with
    | Some idx ->
      Float.of_int (Ghost_store.Climbing_index.directory_bytes idx)
      /. Float.of_int (max 1 (Ghost_store.Climbing_index.entry_count idx))
    | None -> 40.
  in
  let hit = directory_hit_ratio env.cat env.cfg in
  let run_bytes = matched_values *. entry_bytes in
  let run_us =
    if hit > 0. then
      let page = Float.of_int env.cfg.Device.flash_geometry.Flash.page_size in
      Float.max 1. (ceil (run_bytes /. page)) *. point_read_us ~hit env page
    else scratch_read_us env run_bytes
  in
  point_read_us ~hit env 40. *. dir_probes +. run_us +. cpu_us env matched_values

(* One estimator for every mode. [Plan.oblivious] picks the shape at
   the three points where [Exec.execute_plan] picks it:

   - candidate generation: index traversals, shipments, climbs and
     Bloom builds, then SKT probes of the Pre-filtered candidates when
     [Plan.reads_skt] holds; under
     [Full], one full-cardinality frame per visible predicate and a
     bound-depth SKT scan of every loaded root row;
   - hidden predicates: the [H_check] ones, read per candidate; under
     [Full], every hidden predicate on every root row;
   - the delta scan and projection streams: a fenced scan, whose
     hidden predicates below the root test a bitmap filled from the
     climbing index ([Plan.delta_bitmap]) or read the column per
     record, and selection-filtered streams joined against the
     survivors; under [Full], the whole log with every such predicate
     read per record, and full-column streams, with every row kept to
     the end.

   Under [Full] every term is thus a function of the schema and public
   bounds alone; selectivities only predict [est_results]. *)
let estimate cat (plan : Plan.t) =
  let cfg = Device.config cat.Catalog.device in
  let env =
    {
      cat;
      cfg;
      fc = cfg.Device.flash_cost;
      plan;
      cache_hit = hit_ratio cat cfg;
      parts = [];
      usb_bytes = 0;
      ram_bytes = 0;
    }
  in
  let full = plan.Plan.oblivious = Oblivious.Full in
  let root = plan.Plan.root in
  let n_root = count env root in
  let schema = cat.Catalog.schema in
  let time = ref 0. in
  let spend label us =
    add env label us;
    time := !time +. us
  in
  let skt_row_bytes =
    match Catalog.skt cat root with
    | Some skt -> Float.of_int (Ghost_store.Skt.row_width skt)
    | None -> 0.
  in
  let counted =
    Plan.count_source ~tombstones:(Catalog.tombstone_count cat root) plan <> None
  in
  (* 1. Candidate root rows, and the share of them expected to pass the
     tests that follow. *)
  let candidates, post_sel =
    if full then begin
      List.iter
        (fun (g : Plan.group) ->
           let t = g.Plan.g_table in
           let n_t = count env t in
           List.iter
             (fun (_ : Predicate.t) ->
                spend
                  (Printf.sprintf "ship-pad(%s)" t)
                  (usb_us env (ship_bytes env ~n_t (Float.of_int n_t))
                   +. cpu_us env (Float.of_int n_t)))
             g.Plan.g_visible)
        plan.Plan.groups;
      (* the SKT read in order, page by page, at one CPU op a row and 2
         per shipped list tested *)
      let shipped =
        List.length
          (List.filter (fun (g : Plan.group) -> g.Plan.g_visible <> []) plan.Plan.groups)
      in
      spend "bound-scan"
        (page_stream_us env (Float.of_int n_root *. skt_row_bytes)
         +. cpu_us env (Float.of_int n_root *. (1. +. (2. *. Float.of_int shipped))));
      (* the live share: it predicts [est_results] and prices nothing *)
      let all_sel =
        List.fold_left
          (fun acc (g : Plan.group) ->
             acc
             *. List.fold_left
                  (fun a (h : Plan.hidden_pred) -> a *. sel env h.Plan.h_pred)
                  1. g.Plan.g_hidden
             *. visible_sel env g.Plan.g_visible)
          1. plan.Plan.groups
      in
      (Float.of_int n_root, all_sel)
    end
    else begin
      (* selectivity applied before SKT access (pre-filters) *)
      let pre_sel = ref 1. in
      (* selectivity of post filters (applied after SKT access) *)
      let post_sel = ref 1. in
      (* CPU ops AccessSKT spends testing one candidate: [Bloom.k] per
         Bloom filter, 2 per [H_check] predicate *)
      let probe_ops = ref 0. in
      List.iter
        (fun (g : Plan.group) ->
           let t = g.Plan.g_table in
           let n_t = count env t in
           let vis_sel = visible_sel env g.Plan.g_visible in
           let indexed, checked =
             List.partition
               (fun (h : Plan.hidden_pred) -> h.Plan.h_strategy = Plan.H_index)
               g.Plan.g_hidden
           in
           let hidden_sel hs =
             List.fold_left
               (fun acc (h : Plan.hidden_pred) -> acc *. sel env h.Plan.h_pred)
               1. hs
           in
           let hidden_index_sel = hidden_sel indexed in
           (* hidden checks: per surviving candidate, later *)
           post_sel := !post_sel *. hidden_sel checked;
           probe_ops := !probe_ops +. (2. *. Float.of_int (List.length checked));
           let cross_pre = Plan.pre_filtered g && Plan.crossed g in
           (* deep cross: borrowed descendant lists read at this table's
              level, shrinking the climbed set *)
           let borrowed_sel =
             List.fold_left (fun acc (_, p) -> acc *. sel env p) 1. g.Plan.g_borrowed
           in
           if cross_pre then
             List.iter
               (fun (d, p) ->
                  spend
                    (Printf.sprintf "borrow(%s.%s@%s)" d p.Predicate.column t)
                    (hidden_index_us env ~table:d p ~level_count:n_t))
               g.Plan.g_borrowed;
           (* hidden index traversals *)
           List.iter
             (fun (h : Plan.hidden_pred) ->
                let column = h.Plan.h_pred.Predicate.column in
                if counted then
                  spend
                    (Printf.sprintf "count(%s.%s)" t column)
                    (count_index_us env ~table:t h.Plan.h_pred)
                else
                  let level_count = if cross_pre then n_t else n_root in
                  spend
                    (Printf.sprintf "index(%s.%s)" t column)
                    (hidden_index_us env ~table:t h.Plan.h_pred ~level_count))
             indexed;
           if Plan.pre_filtered g then begin
             let m_vis = vis_sel *. Float.of_int n_t in
             spend (Printf.sprintf "ship(%s)" t) (usb_us env (ship_bytes env ~n_t m_vis));
             let m_climbed =
               if cross_pre then m_vis *. hidden_index_sel *. borrowed_sel else m_vis
             in
             spend (Printf.sprintf "climb(%s)" t) (climb_us env ~table:t m_climbed);
             pre_sel := !pre_sel *. vis_sel *. hidden_index_sel
           end
           else if Plan.post_filtered g then begin
             let m_vis = vis_sel *. Float.of_int n_t in
             spend (Printf.sprintf "ship(%s)" t) (usb_us env (ship_bytes env ~n_t m_vis));
             let m_bloom =
               if Plan.crossed g then begin
                 (* reading the hidden T-level lists for the cross *)
                 List.iter
                   (fun (h : Plan.hidden_pred) ->
                      spend
                        (Printf.sprintf "cross-index(%s.%s)" t h.Plan.h_pred.Predicate.column)
                        (hidden_index_us env ~table:t h.Plan.h_pred ~level_count:n_t))
                   indexed;
                 m_vis *. hidden_index_sel
               end
               else m_vis
             in
             let ideal_bytes =
               Float.of_int (Bloom.bits_for_fpr ~n:(max 1 (int_of_float m_bloom)) ~fpr:0.01)
               /. 8.
             in
             let bloom_bytes =
               Float.min ideal_bytes (Float.of_int cfg.Device.ram_budget /. 4.)
             in
             env.ram_bytes <- env.ram_bytes + int_of_float bloom_bytes;
             spend (Printf.sprintf "bloom-build(%s)" t) (cpu_us env (m_bloom *. 8.));
             (* [Exec.build_bloom]'s sizing: at least 64 bytes *)
             probe_ops :=
               !probe_ops
               +. Float.of_int
                    (Bloom.optimal_k
                       ~m_bits:(8 * max 64 (int_of_float bloom_bytes))
                       ~n:(max 1 (int_of_float m_bloom)));
             pre_sel := !pre_sel *. hidden_index_sel;
             post_sel := !post_sel *. vis_sel
           end
           else pre_sel := !pre_sel *. hidden_index_sel)
        plan.Plan.groups;
      let candidates = Float.of_int n_root *. !pre_sel in
      (* SKT access for every candidate, unless the plan is index-only:
         through [Exec]'s 64-byte window, or, when a page cache fronts
         the SKT, one full-page fill per SKT page the candidates touch,
         each priced as a miss: the frames hold few SKT pages from one
         query to the next *)
      if skt_row_bytes > 0. && Plan.reads_skt plan then begin
        let window, hit =
          if cfg.Device.page_cache_frames > 0 then
            (Float.of_int cfg.Device.flash_geometry.Flash.page_size, Some 0.)
          else (64., None)
        in
        spend "access-skt"
          (window_reads_us ?hit env ~window ~n_root ~candidates ~row_bytes:skt_row_bytes)
      end;
      (* Bloom probes + hidden checks per candidate, as AccessSKT
         charges them; none when the plan runs no test, and a counted
         plan has no candidate rows *)
      if (not counted) && !probe_ops > 0. then
        spend "probes" (cpu_us env (candidates *. !probe_ops));
      (candidates, !post_sel)
    end
  in
  let results = candidates *. post_sel in
  (* rows that travel on to the projection: under [Full], every one *)
  let kept = if full then candidates else results in
  (* 2. Delta-log merge-on-read: a Pre-filtered root selection fences the
     run scan to its shipped id range. The touched share is modeled by
     the selection's selectivity — exact for contiguous (range)
     selections of the dense root key, optimistic for scattered ones.
     [Full] reads the whole log. *)
  let delta_fraction =
    match
      List.find_opt (fun (g : Plan.group) -> g.Plan.g_table = root) plan.Plan.groups
    with
    | Some g when (not full) && Plan.pre_filtered g -> visible_sel env g.Plan.g_visible
    | _ -> 1.
  in
  let ds, records = delta_scan env ~fraction:delta_fraction in
  if ds > 0. then spend "delta-scan" ds;
  (* The scanned records' hidden predicates below the root (root ones
     ride in the record), per [Plan.delta_bitmap]: a bitmap filled from
     the index lists once, a bit tested per record; BoundScan's bitmap
     under [Full], priced with its fill below; or a read of the column
     per record. *)
  if records > 0. then
    List.iter
      (fun (g : Plan.group) ->
         let t = g.Plan.g_table in
         List.iter
           (fun (h : Plan.hidden_pred) ->
              let column = h.Plan.h_pred.Predicate.column in
              if t <> root then
                match Plan.delta_bitmap plan g h with
                | Some Plan.Index_lists ->
                  env.ram_bytes <- env.ram_bytes + ((Catalog.table_count cat t + 7) / 8);
                  spend
                    (Printf.sprintf "delta-index(%s.%s)" t column)
                    (hidden_index_us ~bitmap:true env ~table:t h.Plan.h_pred
                       ~level_count:(count env t))
                | Some Plan.Column_scan -> ()
                | None ->
                  let col = Schema.find_column (Schema.find_table schema t) column in
                  spend
                    (Printf.sprintf "delta-check(%s.%s)" t column)
                    (records
                     *. point_read_us env (Float.of_int (Value.ty_width col.Column.ty))))
           g.Plan.g_hidden)
      plan.Plan.groups;
  (* 3. Hidden predicates checked per candidate. Under [Full], a root
     column is read in root-id order with the SKT, and one below the
     root is scanned once into its bitmap, at 2 CPU ops a value either
     way. *)
  List.iter
    (fun (g : Plan.group) ->
       let t = g.Plan.g_table in
       List.iter
         (fun (h : Plan.hidden_pred) ->
            let column = h.Plan.h_pred.Predicate.column in
            let col = Schema.find_column (Schema.find_table schema t) column in
            let width = Float.of_int (Value.ty_width col.Column.ty) in
            if full then begin
              let n =
                if t = root then candidates
                else begin
                  env.ram_bytes <- env.ram_bytes + ((Catalog.table_count cat t + 7) / 8);
                  Float.of_int (Catalog.table_count cat t)
                end
              in
              spend
                (Printf.sprintf "check-all(%s.%s)" t column)
                (page_stream_us env (n *. width) +. cpu_us env (2. *. n))
            end
            else if h.Plan.h_strategy = Plan.H_check then
              spend
                (Printf.sprintf "check(%s.%s)" t column)
                (candidates *. point_read_us env width))
         g.Plan.g_hidden)
    plan.Plan.groups;
  (* 4. Projection joins: one stream per table with visible projected
     columns, plus the Post-filtered tables' verification. *)
  let projected_visible = Plan.visible_projections schema plan in
  let post_tables =
    if full then []
    else
      List.filter_map
        (fun (g : Plan.group) ->
           if Plan.post_filtered g then Some g.Plan.g_table else None)
        plan.Plan.groups
  in
  let join_tables =
    List.sort_uniq String.compare
      (List.map (fun (t, _, _) -> t) projected_visible @ post_tables)
  in
  List.iter
    (fun table ->
       let n_t = count env table in
       let preds = if full then [] else Plan.visible_selections schema plan table in
       let tys =
         List.filter_map
           (fun (t, _, ty) -> if t = table then Some ty else None)
           projected_visible
       in
       let width = List.fold_left (fun acc ty -> acc + Value.ty_width ty) 0 tys in
       let n_stream = visible_sel env preds *. Float.of_int n_t in
       spend
         (Printf.sprintf (if full then "stream-full(%s)" else "stream(%s)") table)
         (usb_us env (stream_bytes env ~n_t ~tys n_stream));
       (* [Exec.join_stream]'s rule in every mode: an in-RAM hash join
          while the stream fits in half the RAM, an external sort of the
          kept rows past it *)
       let hash_bytes = n_stream *. Float.of_int (8 + width) in
       if hash_bytes <= Float.of_int cfg.Device.ram_budget /. 2. then
         spend (Printf.sprintf "join-hash(%s)" table) (cpu_us env ((n_stream +. kept) *. 4.))
       else begin
         let row_bytes = kept *. 24. in
         spend
           (Printf.sprintf "join-sort(%s)" table)
           (write_stream_us env row_bytes +. scratch_read_us env row_bytes
            +. cpu_us env (kept *. 20.))
       end)
    join_tables;
  (* 5. Final projection: hidden column reads — a root column in
     root-id order, through [Exec]'s 256-byte window or, under [Full],
     page by page; a column below the root one point read a row — +
     result emission, padded to a power-of-two bucket under [Pad] and to
     the public bound under [Full]. *)
  List.iter
    (fun (table, column) ->
       let tbl = Schema.find_table schema table in
       let col = Schema.find_column tbl column in
       let width = Float.of_int (Value.ty_width col.Column.ty) in
       if column <> tbl.Schema.key && Column.is_hidden col then
         spend
           (Printf.sprintf (if full then "fetch-all(%s.%s)" else "fetch(%s.%s)") table column)
           (if table <> root then kept *. point_read_us env width
            else if full then page_stream_us env (kept *. width)
            else window_reads_us env ~window:256. ~n_root ~candidates:kept ~row_bytes:width))
    plan.Plan.query.Bind.projections;
  (* [Exec.emit_rows] charges the rows left after aggregation and LIMIT:
     one for an aggregate without GROUP BY, at most one per group
     otherwise. Every candidate plan of a query shares this term. *)
  let emitted =
    let grouped =
      match plan.Plan.query.Bind.aggregate with
      | None -> results
      | Some { Ghost_sql.Aggregate.group_by = []; _ } -> 1.
      | Some spec ->
        List.fold_left
          (fun acc (table, column) ->
             acc
             *. Float.of_int
                  (Col_stats.distinct (Catalog.column_stats cat ~table ~column)))
          1. spec.Ghost_sql.Aggregate.group_by
        |> Float.min results
    in
    match plan.Plan.query.Bind.limit with
    | Some l -> Float.min (Float.of_int l) grouped
    | None -> grouped
  in
  let width = Float.of_int (Plan.emit_row_width schema plan) in
  let emit_label, emit_bytes =
    match plan.Plan.oblivious with
    | Oblivious.Off ->
      (* the display link's compact rows: the root key by its gap in
         root-id order, every other column at its type's expected size *)
      let q = plan.Plan.query in
      let key = (root, (Schema.find_table schema root).Schema.key) in
      let tys = Array.to_list (Bind.output_types schema q) in
      let root_keys, tys =
        match q.Bind.aggregate with
        | Some _ -> (0, tys)
        | None ->
          List.fold_left2
            (fun (k, tys) p ty -> if p = key then (k + 1, tys) else (k, ty :: tys))
            (0, []) q.Bind.projections tys
      in
      ( "emit",
        Wire.est_rows_bytes ~population:(Float.of_int n_root) ~root_keys ~tys emitted )
    | Oblivious.Pad ->
      let bound = emit_bound env in
      ( "emit",
        width
        *. Float.of_int
             (Oblivious.pad_count ~bound (max 0 (min bound (int_of_float (ceil emitted))))) )
    | Oblivious.Full -> ("emit-pad", width *. Float.of_int (emit_bound env))
  in
  spend emit_label (usb_us env emit_bytes);
  {
    est_time_us = !time;
    est_candidates = int_of_float (Float.round candidates);
    est_results = int_of_float (Float.round results);
    est_ram_bytes = env.ram_bytes;
    est_usb_bytes = env.usb_bytes;
    breakdown = List.rev env.parts;
  }

(* The scheduler's shortest-remaining-cost-first policy reorders
   runnable sessions by this on every dispatch: the estimate minus the
   device time the session has already been charged, floored at zero
   (a plan may overrun its estimate without going negative, which
   would out-rank every fresh session forever). *)
let remaining_us e ~spent_us = Float.max 0. (e.est_time_us -. spent_us)

let pp fmt e =
  Format.fprintf fmt "est %.0f us, %d candidates, %d results, %d B ram, %d B usb"
    e.est_time_us e.est_candidates e.est_results e.est_ram_bytes e.est_usb_bytes
