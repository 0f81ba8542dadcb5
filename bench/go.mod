module adhocshare/bench

go 1.22

require adhocshare v0.0.0

replace adhocshare => ../
