package repro.web

import scala.util.Random
import scala.util.hashing.MurmurHash3

import repro.dom.{DomNode, PageDoc}
import repro.dom.DomNode.{el, txt}

/** Renders a [[SiteSpec]] over a universe of entities into detail pages plus
  * ground truth.
  *
  * Truth bookkeeping: while building the tree, nodes that assert a fact get a
  * reserved attribute `TruthAttr -> "pred1,pred2"`.  After flattening (which
  * assigns XPaths) the truth rows are read off those markers and the marker
  * attribute is stripped, so the pipeline never sees it.
  */
object SiteRenderer {

  val TruthAttr = "data-truth"

  /** Render all detail pages (and any non-detail chart pages) of a site.
    *
    * @param related for recommendation/chart sections: a deterministic pick
    *                of other entities of the site for a given entity index.
    */
  def render(
      spec: SiteSpec,
      entities: Vector[WEntity],
      related: Int => Vector[WEntity] = _ => Vector.empty,
  ): RenderedSite = {
    val pages  = Vector.newBuilder[PageDoc]
    val truth  = Vector.newBuilder[TruthFact]
    val topics = Vector.newBuilder[TopicTruth]

    val nChart =
      if (spec.noise.nonDetailFrac >= 1.0) math.max(1, entities.size)
      else (entities.size * spec.noise.nonDetailFrac / (1 - spec.noise.nonDetailFrac)).toInt
    val nDetail = if (spec.noise.nonDetailFrac >= 1.0) 0 else entities.size

    entities.take(nDetail).zipWithIndex.foreach { case (e, i) =>
      val pageId = s"p$i"
      val rng    = new Random(spec.seed ^ MurmurHash3.stringHash(s"${spec.site}/$pageId"))
      val root   = detailPage(spec, e, related(i), rng)
      val (doc, t) = flatten(spec.site, pageId, root)
      pages += doc
      truth ++= t
      topics += TopicTruth(spec.site, pageId, e.id, e.name)
    }
    (0 until nChart).foreach { i =>
      val pageId = s"c$i"
      val rng    = new Random(spec.seed ^ MurmurHash3.stringHash(s"${spec.site}/$pageId"))
      val root   = chartPage(spec, i, related(i), rng)
      val (doc, _) = flatten(spec.site, pageId, root)
      pages += doc // chart pages assert no topic facts: no truth, no topic
    }
    RenderedSite(spec.site, pages.result(), truth.result(), topics.result())
  }

  // ---------------------------------------------------------------- helpers

  private def cls(spec: SiteSpec, generic: String, specific: String): Map[String, String] =
    Map("class" -> (if (spec.noise.genericClasses) generic else s"${spec.classPrefix}-$specific"))

  private def labelText(f: FieldLayout, noise: NoiseSpec, rng: Random): String =
    if (!noise.labelSynonyms) s"${f.label}:"
    else Vector(s"${f.label}:", s"${f.label} by:", s"The ${f.label}:", s"${f.label.toUpperCase}:")(rng.nextInt(4))

  /** One predicate section: optional label node + value node(s) with truth markers. */
  private def section(
      spec: SiteSpec,
      f: FieldLayout,
      values: Vector[(String, Vector[String])], // (value, asserted preds) — empty preds = no truth
      rng: Random,
  ): DomNode = {
    def valAttrs(preds: Vector[String]) = {
      val base = cls(spec, "v", s"val-${f.pred}")
      if (preds.isEmpty) base else base + (TruthAttr -> preds.mkString(","))
    }
    val lbl = txt("span", labelText(f, spec.noise, rng), cls(spec, "lbl", "lbl"))
    val body =
      if (f.multi)
        el("ul", cls(spec, "vals", s"vals-${f.pred}"),
           values.map { case (v, ps) => txt("li", v, valAttrs(ps)) }: _*)
      else
        txt("span", values.head._1, valAttrs(values.head._2))
    el("div", cls(spec, "row", s"sec-${f.pred}"), lbl, body)
  }

  private def detailPage(spec: SiteSpec, e: WEntity, rel: Vector[WEntity], rng: Random): DomNode = {
    val noise = spec.noise

    // Regular predicate sections (collapsed/chart predicates handled separately).
    val collapsed = noise.collapsePreds
    val chartPred = noise.dateChart.map(_._1)
    val regular = spec.fields.filterNot(f => collapsed(f.pred) || chartPred.contains(f.pred) ||
                                             noise.supersetPreds.contains(f.pred))

    var sections: Vector[DomNode] = regular.flatMap { f =>
      val vs = e.values(f.pred)
      if (vs.isEmpty || rng.nextDouble() < noise.missingFieldProb) Vector.empty
      else if (noise.splitPreds(f.pred)) {
        // Featured list + plain remainder (presentation the KB bias tracks).
        val (feat, rest) = vs.partition(v => Featured(e.id, f.pred, v))
        Vector(
          feat.headOption.map(_ => section(spec, f, feat.map(v => (v, Vector(f.pred))), rng)),
          rest.headOption.map(_ =>
            section(spec, f.copy(pred = s"${f.pred}-more", label = s"More ${f.label}"),
              rest.map(v => (v, Vector(f.pred))), rng)),
        ).flatten
      } else Vector(section(spec, f, vs.map(v => (v, Vector(f.pred))), rng))
    }

    // Merged "filmography"-style section: union of values, truth = actual roles.
    if (collapsed.nonEmpty) {
      val byValue = collapsed.toVector.sorted
        .flatMap(p => e.values(p).map(v => (v, p)))
        .groupBy(_._1).view.mapValues(_.map(_._2).distinct.toVector).toVector
        .sortBy(_._1)
      if (byValue.nonEmpty) {
        val f = FieldLayout("credits", "Filmography", multi = true)
        sections :+= section(spec, f, byValue.map { case (v, ps) => (v, ps) }, rng)
      }
    }

    // Fixed-superset sections: every page lists the whole value universe.
    noise.supersetPreds.toVector.sortBy(_._1).foreach { case (pred, universe) =>
      val mine = e.values(pred).toSet
      val f    = spec.fields.find(_.pred == pred).getOrElse(FieldLayout(pred, pred, multi = true))
      sections :+= section(spec, f.copy(multi = true),
        universe.map(v => (v, if (mine(v)) Vector(pred) else Vector.empty)), rng)
    }

    // Date chart: the true value buried among incidental dates.
    noise.dateChart.foreach { case (pred, extra) =>
      val gen  = new NameGen(rng)
      val mine = e.values(pred)
      val rows = rng.shuffle(mine.map(v => (v, Vector(pred))) ++
                   Vector.fill(extra)((gen.date(), Vector.empty[String])))
      if (rows.nonEmpty)
        sections :+= section(spec, FieldLayout(pred, "In Theaters", multi = true), rows, rng)
    }

    if (noise.shuffleSections) sections = rng.shuffle(sections)

    // Ad blocks at random positions shift the sibling indices of sections.
    if (rng.nextDouble() < noise.adInsertProb) {
      val pos = rng.nextInt(sections.size + 1)
      val ad  = el("div", Map("class" -> "ad"), txt("span", "Sponsored Content"))
      sections = sections.take(pos) ++ Vector(ad) ++ sections.drop(pos)
    }

    // Sidebar: known-for strip, recommendations, duplicated credits, search box.
    val side = Vector.newBuilder[DomNode]
    noise.strips.foreach { st =>
      val own    = st.preds.toVector.sorted.flatMap(e.values).distinct.take(st.take)
      val extras = if (st.extraN == 0 || st.extraFrom.isEmpty) Vector.empty
                   else Vector.fill(st.extraN)(st.extraFrom(rng.nextInt(st.extraFrom.size)))
      val items  = rng.shuffle((own ++ extras).distinct)
      if (items.nonEmpty)
        side += el("div", Map("class" -> st.cls),
          txt("span", st.title, Map("class" -> s"${st.cls}-t")) +:
          items.map(n => txt("span", n, Map("class" -> s"${st.cls}-i"))): _*)
    }
    if (noise.recPreds.nonEmpty && rel.nonEmpty) {
      side += el("div", Map("class" -> "rec"),
        txt("span", "You may also like", Map("class" -> "rec-t")) +:
        rel.take(2).flatMap { r =>
          txt("a", r.name, Map("class" -> "rec-nm")) +:
          noise.recPreds.toVector.sorted.flatMap(p => r.values(p).take(3))
            .map(v => txt("span", v, Map("class" -> "rec-g")))
        }: _*)
    }
    if (noise.dupPreds.nonEmpty) {
      val dups = noise.dupPreds.toVector.sorted.flatMap(p => e.values(p).map(v => (v, p)))
      if (dups.nonEmpty)
        side += el("div", Map("class" -> "also"),
          txt("span", "Credits", Map("class" -> "also-t")) +:
          dups.map { case (v, p) => txt("span", v, Map("class" -> "also-i", TruthAttr -> p)) }: _*)
    }
    if (noise.searchBoxValues.nonEmpty)
      side += el("div", Map("class" -> "sbx"),
        noise.searchBoxValues.map(v => txt("option", v, Map("class" -> "sbx-o"))): _*)

    el("html",
      el("head", txt("title", s"${e.name} - ${spec.site}")),
      el("body", Map("class" -> "page"),
        el("div", cls(spec, "hdr", "hdr"),
          txt("h1", e.name, cls(spec, "nm", "name") + (TruthAttr -> spec.namePred))),
        el("div", cls(spec, "main", "main"), sections: _*),
        el("div", cls(spec, "side", "side"), side.result(): _*),
        el("div", cls(spec, "ftr", "ftr"),
          spec.noise.footerStrings.map(s => txt("span", s, Map("class" -> "ftr-i"))): _*),
      ),
    )
  }

  /** Non-detail chart page: same outer skeleton, list-shaped body of entity
    * names and dates with no consistent topic (§5.5.1 disjoint pages).
    */
  private def chartPage(spec: SiteSpec, idx: Int, rel: Vector[WEntity], rng: Random): DomNode = {
    val gen  = new NameGen(rng)
    val rows = (0 until (8 + rng.nextInt(8))).map { _ =>
      val nm = if (rel.nonEmpty) rel(rng.nextInt(rel.size)).name else gen.filmTitle()
      Vector(txt("li", nm, cls(spec, "v", "chart-nm")),
             txt("li", gen.date(), cls(spec, "v", "chart-dt")),
             txt("li", f"$$${rng.nextInt(1000000)}%,d", cls(spec, "v", "chart-amt")))
    }
    el("html",
      el("head", txt("title", s"Charts week $idx - ${spec.site}")),
      el("body", Map("class" -> "page"),
        el("div", cls(spec, "hdr", "hdr"),
          txt("h1", s"Box Office Week $idx", cls(spec, "nm", "name"))),
        el("div", cls(spec, "main", "main"),
          el("div", cls(spec, "row", "sec-chart"),
            txt("span", "Top Grossing:", cls(spec, "lbl", "lbl")),
            el("ul", cls(spec, "vals", "vals-chart"), rows.flatten: _*))),
        el("div", cls(spec, "side", "side")),
        el("div", cls(spec, "ftr", "ftr"),
          spec.noise.footerStrings.map(s => txt("span", s, Map("class" -> "ftr-i"))): _*),
      ),
    )
  }

  /** Flatten, read truth markers off the assigned XPaths, strip the markers. */
  def flatten(site: String, pageId: String, root: DomNode): (PageDoc, Vector[TruthFact]) = {
    val marked = PageDoc.fromTree(site, pageId, root)
    val truth = marked.nodes.flatMap { n =>
      n.attrs.get(TruthAttr).toVector.flatMap(_.split(",").toVector.map(p =>
        TruthFact(site, pageId, n.xpath, p, n.text)))
    }
    val clean = marked.copy(nodes = marked.nodes.map(n =>
      if (n.attrs.contains(TruthAttr)) n.copy(attrs = n.attrs - TruthAttr) else n))
    (clean, truth)
  }
}
