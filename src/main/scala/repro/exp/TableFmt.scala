package repro.exp

import repro.core.Metrics

/** Plain-text table helpers for each paper table's one renderer (in its experiment). */
object TableFmt {

  def render(title: String, header: Vector[String], rows: Vector[Vector[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Vector[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  def f2(x: Double): String = if (x.isNaN) "NA" else f"$x%.2f"

  def prfRow(prefix: Vector[String], m: Metrics.PRF): Vector[String] =
    prefix ++ Vector(f2(m.p), f2(m.r), f2(m.f1))
}
