let turn_order ~radix =
  List.concat (List.init (radix - 1) (fun i -> [ i + 1; -(i + 1) ]))

let provably_illegal model v ~turn =
  Model.turn_state model v ~turn = Model.Beyond_window

let already_known model v ~turn = Model.turn_state model v ~turn = Model.Wired
