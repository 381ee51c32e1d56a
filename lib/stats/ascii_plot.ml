(* A string, not an array: this is a constant lookup table and strings are
   immutable, so it classifies as domain-safe. *)
let glyphs = "*+ox#@%&"

let width = 64
let height = 16

let render ~x_label ~y_label ~x_min ~x_max
    ~y_min ~y_max series =
  let buf = Buffer.create 1024 in
  let grid = Array.make_matrix height width ' ' in
  let x_span = if x_max > x_min then x_max -. x_min else 1.0 in
  let y_span = if y_max > y_min then y_max -. y_min else 1.0 in
  let plot glyph (x, y) =
    let col = int_of_float ((x -. x_min) /. x_span *. float_of_int (width - 1)) in
    let row = int_of_float ((y -. y_min) /. y_span *. float_of_int (height - 1)) in
    if col >= 0 && col < width && row >= 0 && row < height then
      grid.(height - 1 - row).(col) <- glyph
  in
  List.iteri
    (fun i (_, points) -> List.iter (plot glyphs.[i mod String.length glyphs]) points)
    series;
  List.iteri
    (fun i (name, _) ->
      Buffer.add_string buf
        (Printf.sprintf "  %c %s\n" glyphs.[i mod String.length glyphs] name))
    series;
  if y_label <> "" then Buffer.add_string buf (Printf.sprintf "  y: %s\n" y_label);
  Buffer.add_string buf (Printf.sprintf "%8.3g +\n" y_max);
  Array.iter
    (fun row ->
      Buffer.add_string buf "         |";
      Buffer.add_string buf (String.init width (fun i -> row.(i)));
      Buffer.add_char buf '\n')
    grid;
  Buffer.add_string buf (Printf.sprintf "%8.3g +%s\n" y_min (String.make width '-'));
  Buffer.add_string buf
    (Printf.sprintf "          %-8.3g%s%8.3g\n" x_min
       (String.make (max 1 (width - 16)) ' ')
       x_max);
  if x_label <> "" then Buffer.add_string buf (Printf.sprintf "          x: %s\n" x_label);
  Buffer.contents buf

let cdfs ?(x_label = "") named_cdfs =
  match named_cdfs with
  | [] -> "(no data)\n"
  | _ ->
      let x_min =
        List.fold_left (fun acc (_, c) -> Float.min acc (Cdf.min_value c)) infinity
          named_cdfs
      and x_max =
        List.fold_left (fun acc (_, c) -> Float.max acc (Cdf.max_value c)) neg_infinity
          named_cdfs
      in
      let series =
        List.map
          (fun (name, c) ->
            (* sample the CDF densely over x for a smooth curve *)
            let n = 128 in
            let points =
              List.init n (fun i ->
                  let x =
                    x_min +. (float_of_int i /. float_of_int (n - 1) *. (x_max -. x_min))
                  in
                  (x, Cdf.eval c x))
            in
            (name, points))
          named_cdfs
      in
      render ~x_label ~y_label:"CDF" ~x_min ~x_max ~y_min:0.0 ~y_max:1.0
        series

let scatter ?(x_label = "") ?(y_label = "") series =
  let all = List.concat_map snd series in
  match all with
  | [] -> "(no data)\n"
  | (x0, y0) :: _ ->
      let fold f init sel = List.fold_left (fun acc p -> f acc (sel p)) init all in
      let x_min = fold Float.min x0 fst and x_max = fold Float.max x0 fst in
      let y_min = fold Float.min y0 snd and y_max = fold Float.max y0 snd in
      render ~x_label ~y_label ~x_min ~x_max ~y_min ~y_max series
