package repro.dom

/** Helpers over absolute XPath strings (`/html[1]/body[1]/div[2]/span[1]`).
  *
  * The pipeline frequently needs the *template* of a path — the path with
  * sibling indices removed — because pages from one template place the same
  * predicate at paths that differ only in indices (Figure 2 of the paper).
  * Template clustering signs pages with it, and negative sampling (§4.1)
  * excludes the nodes whose template matches a list of positives.
  */
object XPaths {
  private val IndexRe = "\\[\\d+\\]".r

  /** Drop all sibling indices: `/html[1]/div[2]` → `/html/div`. */
  def template(xpath: String): String = IndexRe.replaceAllIn(xpath, "")
}
