"""QUADPACK's 21-point Gauss-Kronrod rule qk21: its nodes and weights.

One table, read by the WKB exponent (wkb.barrier_exponent) and by the
adaptive tables of minisuperspace.clock_map and hamilton_jacobi_phase.
The values are qk21's xgk, wgk and wg (Piessens, de Doncker-Kapenga,
Ueberhuber and Kahaner, QUADPACK, Springer 1983).
"""

import numpy as np

#: qk21's xgk: the Kronrod abscissae in (0, 1), largest first; those at the
#: odd positions 1, 3, ..., 9 are the nodes of the 10-point Gauss rule
XGK = (0.995657163025808080735527280689003,
       0.973906528517171720077964012084452,
       0.930157491355708226001207180059508,
       0.865063366688984510732096688423493,
       0.780817726586416897063717578345042,
       0.679409568299024406234327365114874,
       0.562757134668604683339000099272694,
       0.433395394129247190799265943165784,
       0.294392862701460198131126603103866,
       0.148874338981631210884826001129720)

#: qk21's wgk: the Kronrod weights of +-XGK, then of the centre 0
WGK = (0.011694638867371874278064396062192,
       0.032558162307964727478818972459390,
       0.054755896574351996031381300244580,
       0.075039674810919952767043140916190,
       0.093125454583697605535065465083366,
       0.109387158802297641899210590325805,
       0.123491976262065851077958109831074,
       0.134709217311473325928054001771707,
       0.142775938577060080797094273138717,
       0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)

#: qk21's wg: the Gauss weights of +-XGK[1], +-XGK[3], ..., +-XGK[9]
WG = (0.066671344308688137593568809893332,
      0.149451349150580593145776339657697,
      0.219086362515982043995534934228163,
      0.269266719309996355091226921569469,
      0.295524224714752870173892994651338)

#: qk21 on [-1, 1]: the 21 Kronrod nodes in increasing order and their weights
KRONROD_X = np.array([-x for x in XGK] + [0.0] + list(XGK[::-1]))
KRONROD_W = np.array(WGK[:10] + WGK[10:] + WGK[9::-1])

#: the 10 Gauss nodes, which are KRONROD_X[1::2], and their weights
GAUSS_X = KRONROD_X[1::2]
GAUSS_W = np.array(WG + WG[::-1])
