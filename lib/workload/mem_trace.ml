open Gr_util

type kind =
  | Zipfian of {
      rng : Rng.t;
      zipf : Rng.Zipf.t;
      n_pages : int;
      mutable hot_offset : int;
    }
  | Scan of { n_pages : int; mutable pos : int }
  | Mixed of { rng : Rng.t; scan_fraction : float; main : t; other : t }

and t = kind

let zipfian ~rng ~n_pages ?(s = 1.1) () =
  if n_pages <= 0 then invalid_arg "Mem_trace.zipfian: n_pages must be positive";
  Zipfian { rng = Rng.fork rng; zipf = Rng.Zipf.create ~n:n_pages ~s; n_pages; hot_offset = 0 }

let scan ~n_pages =
  if n_pages <= 0 then invalid_arg "Mem_trace.scan: n_pages must be positive";
  Scan { n_pages; pos = 0 }

let mixed ~rng ~scan_fraction main other =
  if not (scan_fraction >= 0. && scan_fraction <= 1.) then
    invalid_arg "Mem_trace.mixed: scan_fraction must be in [0,1]";
  Mixed { rng = Rng.fork rng; scan_fraction; main; other }

let rec next = function
  | Zipfian z ->
    let rank = Rng.Zipf.sample z.zipf z.rng in
    (rank + z.hot_offset) mod z.n_pages
  | Scan s ->
    let page = s.pos in
    s.pos <- (s.pos + 1) mod s.n_pages;
    page
  | Mixed m -> if Rng.float m.rng 1.0 < m.scan_fraction then next m.other else next m.main

let rec shift_hot_set t ~offset =
  match t with
  | Zipfian z -> z.hot_offset <- offset
  | Scan _ -> ()
  | Mixed m ->
    shift_hot_set m.main ~offset;
    shift_hot_set m.other ~offset
